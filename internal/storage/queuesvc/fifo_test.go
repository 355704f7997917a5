package queuesvc

import (
	"slices"
	"testing"
	"time"

	"azureobs/internal/sim"
)

// order returns the queue's message IDs walked from the head, and fails the
// test if the backward links, the tail or Len disagree with that walk.
func order(t *testing.T, q *Queue) []uint64 {
	t.Helper()
	var ids []uint64
	var prev *Message
	for m := q.head; m != nil; m = m.next {
		if m.prev != prev {
			t.Fatalf("message %d: prev link broken", m.ID)
		}
		ids = append(ids, m.ID)
		prev = m
	}
	if q.tail != prev {
		t.Fatal("tail is not the last message")
	}
	if q.Len() != len(ids) || len(q.byID) != len(ids) {
		t.Fatalf("Len = %d, index = %d, list = %d", q.Len(), len(q.byID), len(ids))
	}
	return ids
}

// TestFIFODeleteHeadMiddleTail: deletes unlink messages from anywhere in
// the queue and keep arrival order, Len and the ID index consistent;
// Receive skips hidden messages and never sees deleted ones.
func TestFIFODeleteHeadMiddleTail(t *testing.T) {
	eng, svc := newSvc()
	q := svc.CreateQueue("q")
	q.Prefill(5, 64)
	if ids := order(t, q); !slices.Equal(ids, []uint64{1, 2, 3, 4, 5}) {
		t.Fatalf("prefilled order = %v", ids)
	}
	eng.Spawn("c", func(p *sim.Proc) {
		rcpts := map[uint64]Receipt{}
		for i := 0; i < 5; i++ {
			m, r, ok, err := svc.Receive(p, q, time.Hour)
			if !ok || err != nil {
				t.Errorf("receive %d: ok=%v err=%v", i, ok, err)
				return
			}
			if m.ID != uint64(i+1) {
				t.Errorf("receive %d got message %d: hidden messages must be skipped in order", i, m.ID)
			}
			rcpts[m.ID] = r
		}
		if _, _, ok, _ := svc.Receive(p, q, time.Hour); ok {
			t.Error("received a hidden message")
		}
		for _, step := range []struct {
			id   uint64
			want []uint64
		}{
			{3, []uint64{1, 2, 4, 5}}, // middle
			{1, []uint64{2, 4, 5}},    // head
			{5, []uint64{2, 4}},       // tail
		} {
			if err := svc.Delete(p, q, rcpts[step.id]); err != nil {
				t.Errorf("delete %d: %v", step.id, err)
			}
			if ids := order(t, q); !slices.Equal(ids, step.want) {
				t.Errorf("after deleting %d: order %v, want %v", step.id, ids, step.want)
			}
		}
		if m := q.firstVisible(p.Now()); m != nil {
			t.Errorf("first visible = %d while every message is hidden", m.ID)
		}
		p.Sleep(time.Hour)
		if m := q.firstVisible(p.Now()); m == nil || m.ID != 2 {
			t.Errorf("first visible after the window = %v, want message 2", m)
		}
		q.Prefill(2, 64)
		if ids := order(t, q); !slices.Equal(ids, []uint64{2, 4, 6, 7}) {
			t.Errorf("order after refill = %v", ids)
		}
		if err := svc.Delete(p, q, rcpts[4]); err != nil {
			t.Errorf("delete 4 after its window lapsed, never redelivered: %v", err)
		}
		if ids := order(t, q); !slices.Equal(ids, []uint64{2, 6, 7}) {
			t.Errorf("order after deleting 4 = %v", ids)
		}
		for i := 0; i < 3; i++ {
			_, r, ok, err := svc.Receive(p, q, time.Hour)
			if !ok || err != nil {
				t.Errorf("drain receive %d: ok=%v err=%v", i, ok, err)
				return
			}
			if err := svc.Delete(p, q, r); err != nil {
				t.Errorf("drain delete %d: %v", i, err)
			}
		}
		if ids := order(t, q); len(ids) != 0 || q.head != nil {
			t.Errorf("drained queue still holds %v", ids)
		}
	})
	eng.Run()
}

// TestMessageRefRoundTrip: the reference an adder attaches reaches the
// receiver untouched; the blocking Add, which serves clients that have no
// in-process reference, attaches none.
func TestMessageRefRoundTrip(t *testing.T) {
	eng, svc := newSvc()
	q := svc.CreateQueue("q")
	type task struct{ id int }
	ref := &task{id: 7}
	var a sim.Actor
	a.Bind(eng, "adder")
	r := svc.NewReqFlat()
	a.Go(func() {
		r.BeginAdd(&a, q, "", ref, 1024, func(_ uint64, err error) {
			if err != nil {
				t.Errorf("add: %v", err)
			}
			a.Finish()
		})
	})
	eng.Spawn("c", func(p *sim.Proc) {
		p.Sleep(time.Second)
		if _, err := svc.Add(p, q, "plain", 512); err != nil {
			t.Errorf("blocking add: %v", err)
		}
		m, _, ok, err := svc.Receive(p, q, time.Minute)
		if !ok || err != nil || m.Ref != any(ref) || m.Size != 1024 {
			t.Errorf("first message: %+v ok=%v err=%v, want Ref %p", m, ok, err, ref)
		}
		m, _, ok, err = svc.Receive(p, q, time.Minute)
		if !ok || err != nil || m.Ref != nil || m.Body != "plain" {
			t.Errorf("blocking-added message: %+v ok=%v err=%v, want a nil Ref", m, ok, err)
		}
	})
	eng.Run()
}
