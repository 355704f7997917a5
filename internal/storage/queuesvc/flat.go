package queuesvc

import (
	"time"

	"azureobs/internal/sim"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/storage/storerr"
)

// qop selects which queue operation a flat request runs.
type qop int

const (
	qAdd qop = iota
	qPeek
	qReceive
	qDelete
)

// ReqFlat is the request state for the queue ops — their only
// implementation. A kernel-driven caller owns one (one outstanding request
// at a time), runs it on its own actor and reuses it for every op it ever
// issues; the blocking methods (Add, Peek, ...) drive a pooled one on the
// calling process through sim.Proc.Drive. A caller that cancels its actor
// withdraws the request in flight with Abort.
//
// Stages: admission (the queue pipeline has no request-latency stage, so no
// wake is scheduled there), the op's station visit, then the op body at the
// visit's end — Receive selects and hides its message in that same atomic
// instant, before the payload download, so concurrent receivers never race
// for the same message.
type ReqFlat struct {
	svc *Service
	c   reqpath.CtxFlat

	op         qop
	q          *Queue
	body       string
	ref        any
	size       int
	visibility time.Duration
	m          *Message
	rcpt       Receipt

	addDone  func(id uint64, err error)
	peekDone func(msg *Message, ok bool, err error)
	recvDone func(msg *Message, rcpt Receipt, ok bool, err error)
	delDone  func(err error)

	afterVisit    func() // cached: runs when the station visit's sleep ends
	afterDownload func() // cached: runs when the payload download ends
}

// NewReqFlat builds request state against the service.
func (s *Service) NewReqFlat() *ReqFlat {
	r := &ReqFlat{}
	r.Init(s)
	return r
}

// Init prepares an embedded (zero-value) ReqFlat in place.
func (r *ReqFlat) Init(s *Service) {
	if r.svc != nil {
		panic("queuesvc: ReqFlat initialised twice")
	}
	r.svc = s
	r.afterVisit = r.visited
	r.afterDownload = r.downloaded
}

// BeginAdd issues one Add on actor a: the message body, padded to size
// bytes, is appended with ref as its in-process reference (see Message.Ref);
// done receives the new message's id.
func (r *ReqFlat) BeginAdd(a *sim.Actor, q *Queue, body string, ref any, size int, done func(id uint64, err error)) {
	r.addDone = done
	if size < len(body) {
		size = len(body)
	}
	r.q, r.body, r.ref, r.size = q, body, ref, size
	if !r.begin(a, qAdd, "queue.Add") {
		return
	}
	r.c.Visit(r.svc.add, r.c.UploadCost(size), r.afterVisit)
}

// BeginPeek issues one Peek on actor a: the first visible message, without
// changing queue state; ok=false with a nil error when none is visible.
func (r *ReqFlat) BeginPeek(a *sim.Actor, q *Queue, done func(msg *Message, ok bool, err error)) {
	r.peekDone = done
	r.q = q
	if !r.begin(a, qPeek, "queue.Peek") {
		return
	}
	r.c.Visit(r.svc.peek, 0, r.afterVisit)
}

// BeginReceive issues one Receive on actor a: it pops the first visible
// message, hiding it for the visibility window (zero means the service
// default; values above MaxVisibility clamp). If the consumer does not
// Delete it in time it reappears for other consumers — the automatic retry
// behaviour of Section 5.2.
func (r *ReqFlat) BeginReceive(a *sim.Actor, q *Queue, visibility time.Duration, done func(msg *Message, rcpt Receipt, ok bool, err error)) {
	r.recvDone = done
	if visibility <= 0 {
		visibility = r.svc.cfg.DefaultVisibility
	}
	if visibility > r.svc.cfg.MaxVisibility {
		visibility = r.svc.cfg.MaxVisibility
	}
	r.q, r.visibility = q, visibility
	if !r.begin(a, qReceive, "queue.Receive") {
		return
	}
	r.c.Visit(r.svc.receive, 0, r.afterVisit)
}

// BeginDelete issues one Delete on actor a. A stale receipt (the message
// timed out and was re-received) is a conflict — exactly the
// corrupted-output hazard the paper describes for slow tasks.
func (r *ReqFlat) BeginDelete(a *sim.Actor, q *Queue, rcpt Receipt, done func(err error)) {
	r.delDone = done
	r.q, r.rcpt = q, rcpt
	if !r.begin(a, qDelete, "queue.Delete") {
		return
	}
	r.c.Visit(r.svc.del, 0, r.afterVisit)
}

// begin runs admission; it reports whether the request is still alive.
func (r *ReqFlat) begin(a *sim.Actor, op qop, name string) bool {
	r.op = op
	r.c.Begin(r.svc.pl, name, a)
	if _, _, err := r.c.AdmitPre(); err != nil {
		r.finish(err)
		return false
	}
	if err := r.c.AdmitPost(); err != nil {
		r.finish(err)
		return false
	}
	return true
}

func (r *ReqFlat) visited() {
	q, now := r.q, r.c.Now()
	r.c.EndVisit()
	switch r.op {
	case qAdd:
		q.nextID++
		m := &Message{ID: q.nextID, Body: r.body, Ref: r.ref, Size: r.size, Inserted: now}
		q.push(m)
		r.m = m
		r.finish(nil)
	case qPeek:
		m := q.firstVisible(now)
		if m == nil {
			r.finish(nil)
			return
		}
		r.m = m
		r.c.Sleep(r.c.DownloadCost(m.Size), r.afterDownload)
	case qReceive:
		m := q.firstVisible(now)
		if m == nil {
			r.finish(nil)
			return
		}
		m.visibleAt = now + r.visibility
		m.Dequeues++
		q.nextReceipt++
		m.receipt = q.nextReceipt
		r.m, r.rcpt = m, Receipt{MsgID: m.ID, token: q.nextReceipt}
		r.c.Sleep(r.c.DownloadCost(m.Size), r.afterDownload)
	case qDelete:
		m, ok := q.byID[r.rcpt.MsgID]
		if !ok {
			r.finish(r.c.Failf(storerr.CodeNotFound, "message %d", r.rcpt.MsgID))
			return
		}
		if m.receipt != r.rcpt.token {
			r.finish(r.c.Failf(storerr.CodeConflict, "stale receipt for message %d", m.ID))
			return
		}
		q.remove(m)
		r.finish(nil)
	}
}

func (r *ReqFlat) downloaded() { r.finish(nil) }

// Abort withdraws the in-flight request at its current stage, for a caller
// whose actor is cancelled: a station slot is given up without counting
// the op, no hook sees the request and its completion never runs. The
// state is then free for the next Begin. Aborting an idle state is a
// no-op.
func (r *ReqFlat) Abort() {
	r.c.Abort()
	r.q, r.m = nil, nil
	r.body, r.ref, r.rcpt = "", nil, Receipt{}
	r.addDone, r.peekDone, r.recvDone, r.delDone = nil, nil, nil, nil
}

func (r *ReqFlat) finish(err error) {
	op, m, rcpt := r.op, r.m, r.rcpt
	addDone, peekDone, recvDone, delDone := r.addDone, r.peekDone, r.recvDone, r.delDone
	r.c.Finish(err)
	// Clear the in-flight state before the callback so the continuation can
	// issue the next op immediately.
	r.q, r.m = nil, nil
	r.body, r.ref, r.rcpt = "", nil, Receipt{}
	r.addDone, r.peekDone, r.recvDone, r.delDone = nil, nil, nil, nil
	switch op {
	case qAdd:
		var id uint64
		if err == nil && m != nil {
			id = m.ID
		}
		addDone(id, err)
	case qPeek:
		if err != nil {
			m = nil
		}
		peekDone(m, m != nil, err)
	case qReceive:
		if err != nil {
			m, rcpt = nil, Receipt{}
		}
		recvDone(m, rcpt, m != nil, err)
	case qDelete:
		delDone(err)
	}
}
