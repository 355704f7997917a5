package sim

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"
)

// fireLog records the labels of fired events in firing order.
type fireLog []int

func (l *fireLog) fn(label int) func() { return func() { *l = append(*l, label) } }

// Property: an event keyed with ScheduleSeq or RescheduleSeq fires exactly
// where a Schedule made when its seq was taken would have fired. The
// reference engine schedules every event on the spot; the keyed engine only
// takes a seq for the deferred ones, later schedules each at a decoy key
// (a later seq, at a time before, at or after its own) and moves it to its
// true key with RescheduleSeq, from above or below, then moves it to that
// same key once more. Times are drawn from a small range so equal-time ties
// abound.
func TestSeqKeyedEventsFireWhereScheduleWould(t *testing.T) {
	var up, down int
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 31))
		ref, keyed := NewEngine(), NewEngine()
		var want, got fireLog
		type deferred struct {
			label int
			at    time.Duration
			seq   uint64
		}
		var later []deferred
		n := 5 + rng.IntN(60)
		for label := 0; label < n; label++ {
			at := time.Duration(rng.IntN(8))
			ref.Schedule(at, want.fn(label))
			if rng.IntN(2) == 0 {
				keyed.Schedule(at, got.fn(label))
				continue
			}
			later = append(later, deferred{label, at, keyed.TakeSeq()})
		}
		evs := make([]*Event, len(later))
		for i, d := range later {
			evs[i] = keyed.ScheduleSeq(time.Duration(rng.IntN(8)), keyed.TakeSeq(), got.fn(d.label))
		}
		for i, d := range later {
			if d.at < evs[i].Time() || d.at == evs[i].Time() {
				up++ // the true seq is older than the decoy's
			} else {
				down++
			}
			keyed.RescheduleSeq(evs[i], d.at, d.seq)
			keyed.RescheduleSeq(evs[i], d.at, d.seq) // unchanged key
			if evs[i].Time() != d.at || evs[i].Seq() != d.seq {
				t.Fatalf("seed %d: event keyed (%v, %d), want (%v, %d)", seed, evs[i].Time(), evs[i].Seq(), d.at, d.seq)
			}
		}
		ref.Run()
		keyed.Run()
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: keyed engine fired %v, Schedule order %v", seed, got, want)
		}
	}
	if up == 0 || down == 0 {
		t.Fatalf("sifts up %d, down %d: both directions must be exercised", up, down)
	}
}

// An event armed at a seq taken before an equal-time Schedule fires before
// it, and one moved behind it fires after it, however the heap was laid out.
func TestSeqKeyedEqualTimeTies(t *testing.T) {
	e := NewEngine()
	var got fireLog
	early := e.TakeSeq()
	e.Schedule(time.Second, got.fn(2))
	late := e.TakeSeq()
	ev := e.ScheduleSeq(time.Second, late, got.fn(1))
	e.RescheduleSeq(ev, time.Second, early) // up past the equal-time event
	e.Schedule(time.Second, got.fn(3))
	e.Run()
	if !slices.Equal(got, fireLog{1, 2, 3}) {
		t.Fatalf("fired %v, want [1 2 3]", got)
	}

	e = NewEngine()
	got = nil
	early = e.TakeSeq()
	ev = e.ScheduleSeq(time.Second, early, got.fn(2))
	e.Schedule(time.Second, got.fn(1))
	e.RescheduleSeq(ev, time.Second, e.TakeSeq()) // down behind it
	e.Run()
	if !slices.Equal(got, fireLog{1, 2}) {
		t.Fatalf("fired %v, want [1 2]", got)
	}
}

// Reschedule is RescheduleSeq at a fresh seq: it moves an event behind
// every equal-time event already scheduled.
func TestRescheduleTakesFreshSeq(t *testing.T) {
	e := NewEngine()
	var got fireLog
	ev := e.Schedule(time.Second, got.fn(2))
	e.Schedule(time.Second, got.fn(1))
	seq := ev.Seq()
	e.Reschedule(ev, time.Second)
	if ev.Seq() <= seq {
		t.Fatalf("Reschedule kept seq %d (was %d)", ev.Seq(), seq)
	}
	e.Run()
	if !slices.Equal(got, fireLog{1, 2}) {
		t.Fatalf("fired %v, want [1 2]", got)
	}
}

func panicsWith(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	fn()
}

func TestSeqKeyedPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {})
	e.Step()
	seq := e.TakeSeq()
	panicsWith(t, "before now", func() { e.ScheduleSeq(time.Second-1, seq, func() {}) })
	panicsWith(t, "not yet taken", func() { e.ScheduleSeq(2*time.Second, seq+1, func() {}) })

	ev := e.ScheduleSeq(2*time.Second, seq, func() {})
	panicsWith(t, "before now", func() { e.RescheduleSeq(ev, time.Second-1, seq) })
	panicsWith(t, "not yet taken", func() { e.RescheduleSeq(ev, 2*time.Second, seq+1) })

	fired := e.ScheduleSeq(2*time.Second, e.TakeSeq(), func() {})
	e.RunUntil(2 * time.Second)
	canceled := e.ScheduleSeq(3*time.Second, e.TakeSeq(), func() {})
	e.Cancel(canceled)
	recycled := e.Schedule(3*time.Second, func() {})
	e.CancelRecycle(recycled)
	for _, tc := range []struct {
		name string
		ev   *Event
	}{{"fired", fired}, {"canceled", canceled}, {"recycled", recycled}, {"nil", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			panicsWith(t, "not pending", func() { e.RescheduleSeq(tc.ev, 4*time.Second, e.TakeSeq()) })
		})
	}
}
