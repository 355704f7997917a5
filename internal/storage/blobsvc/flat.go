package blobsvc

import (
	"azureobs/internal/sim"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/storage/storerr"
)

// bop selects which blob operation a request runs.
type bop int

const (
	bGet bop = iota
	bGetRange
	bPut
	bExists
	bDelete
)

// reqFlat is one blob request as a flat state machine — the only
// implementation of the blob ops. A kernel-driven caller runs it on its own
// actor through the *Flat methods (one request in flight per session, the
// closed-loop shape of the paper's clients, so the session's state is
// allocated once and reused); the blocking methods drive a pooled one on
// the calling process (sim.Proc.Drive).
//
// Stages: admission (outage → conn-fail → request-latency sleep →
// server-busy), lookup, read-fault, fabric transfer, integrity/commit, hook
// delivery, then the completion at the instant the request ends. Exists and
// Delete have no transfer stage.
type reqFlat struct {
	sess *Session
	c    reqpath.CtxFlat

	op              bop
	container, name string
	offset, size    int64 // size: the upload, range or downloaded length
	overwrite       bool
	b               *Blob

	// The completion: done receives the op's byte count (1/0 for Exists, 0
	// for Delete) unless a typed callback of the flat Exists/Delete forms is
	// set.
	done    func(n int64, err error)
	okDone  func(ok bool, err error)
	errDone func(err error)

	afterAdmit func() // cached: runs after the request-latency sleep
	afterXfer  func() // cached: runs when the fabric transfer completes
}

func (r *reqFlat) init() {
	r.afterAdmit = r.admitted
	r.afterXfer = r.transferred
}

func (sess *Session) flatReq() *reqFlat {
	if sess.flat == nil {
		sess.flat = &reqFlat{}
		sess.flat.init()
	}
	return sess.flat
}

// call is one blocking request: a pooled reqFlat plus the result its
// completion delivers.
type call struct {
	svc *Service
	r   reqFlat
	n   int64
	err error
}

// call takes a blocking-call state from the service's free list.
func (s *Service) call() *call {
	if n := len(s.calls); n > 0 {
		c := s.calls[n-1]
		s.calls = s.calls[:n-1]
		return c
	}
	c := &call{svc: s}
	c.r.init()
	c.r.done = c.deliver
	return c
}

func (c *call) deliver(n int64, err error) { c.n, c.err = n, err }

// release returns the call's result and the call to the free list.
func (c *call) release() (int64, error) {
	n, err := c.n, c.err
	c.err = nil
	c.svc.calls = append(c.svc.calls, c)
	return n, err
}

// GetFlat is the flat-actor form of Get: a's continuations drive the request
// and done receives the blob size (0 on error) at the instant Get would have
// returned. One flat request may be in flight per session.
func (sess *Session) GetFlat(a *sim.Actor, container, name string, done func(size int64, err error)) {
	r := sess.flatReq()
	r.done = done
	r.begin(a, sess, "blob.Get", bGet, container, name, 0, 0, false)
}

// GetRangeFlat is the flat-actor form of GetRange; done receives the bytes
// transferred (0 on error).
func (sess *Session) GetRangeFlat(a *sim.Actor, container, name string, offset, length int64, done func(n int64, err error)) {
	r := sess.flatReq()
	r.done = done
	r.begin(a, sess, "blob.GetRange", bGetRange, container, name, offset, length, false)
}

// PutFlat is the flat-actor form of Put; done receives the upload size and
// the request's outcome.
func (sess *Session) PutFlat(a *sim.Actor, container, name string, size int64, overwrite bool, done func(size int64, err error)) {
	r := sess.flatReq()
	r.done = done
	r.begin(a, sess, "blob.Put", bPut, container, name, 0, size, overwrite)
}

// ExistsFlat is the flat-actor form of Exists; done receives the existence
// check's outcome at the instant Exists would have returned.
func (sess *Session) ExistsFlat(a *sim.Actor, container, name string, done func(ok bool, err error)) {
	r := sess.flatReq()
	r.okDone = done
	r.begin(a, sess, "blob.Exists", bExists, container, name, 0, 0, false)
}

// DeleteFlat is the flat-actor form of Delete.
func (sess *Session) DeleteFlat(a *sim.Actor, container, name string, done func(err error)) {
	r := sess.flatReq()
	r.errDone = done
	r.begin(a, sess, "blob.Delete", bDelete, container, name, 0, 0, false)
}

func (r *reqFlat) begin(a *sim.Actor, sess *Session, op string, kind bop, container, name string, offset, size int64, overwrite bool) {
	r.c.Begin(sess.pl, op, a)
	r.sess, r.op = sess, kind
	r.container, r.name, r.offset, r.size, r.overwrite = container, name, offset, size, overwrite
	sleep, hasSleep, err := r.c.AdmitPre()
	if err != nil {
		r.finish(err)
		return
	}
	if hasSleep {
		r.c.Sleep(sleep, r.afterAdmit)
		return
	}
	r.admitted()
}

func (r *reqFlat) admitted() {
	if err := r.c.AdmitPost(); err != nil {
		r.finish(err)
		return
	}
	sess, svc := r.sess, r.sess.svc
	switch r.op {
	case bGet, bGetRange:
		b, ok := svc.containers[r.container][r.name]
		if !ok {
			r.finish(r.c.Failf(storerr.CodeNotFound, "%s/%s", r.container, r.name))
			return
		}
		if r.op == bGet {
			r.size = b.Size
		} else {
			if r.offset < 0 || r.offset >= b.Size || r.size <= 0 {
				r.finish(r.c.Failf(storerr.CodeInternal, "bad range [%d,+%d) of %d", r.offset, r.size, b.Size))
				return
			}
			r.size = min(r.size, b.Size-r.offset)
		}
		r.b = b
		if err := r.c.ReadFault(); err != nil {
			r.finish(err)
			return
		}
		r.c.Transfer(r.size, r.afterXfer, b.egress, sess.down)
	case bPut:
		cont, ok := svc.containers[r.container]
		if !ok {
			r.finish(r.c.Failf(storerr.CodeNotFound, "container %s", r.container))
			return
		}
		if _, exists := cont[r.name]; exists && !r.overwrite {
			r.finish(r.c.Failf(storerr.CodeBlobExists, "%s/%s", r.container, r.name))
			return
		}
		r.c.Transfer(r.size, r.afterXfer, sess.up, svc.ingress)
	case bExists:
		// A lookup only — no station, no transfer.
		r.size = 0
		if _, ok := svc.containers[r.container][r.name]; ok {
			r.size = 1
		}
		r.finish(nil)
	case bDelete:
		cont := svc.containers[r.container]
		if _, ok := cont[r.name]; !ok {
			r.finish(r.c.Failf(storerr.CodeNotFound, "%s/%s", r.container, r.name))
			return
		}
		delete(cont, r.name)
		r.finish(nil)
	}
}

func (r *reqFlat) transferred() {
	svc := r.sess.svc
	if r.op != bPut {
		svc.downloads++
		r.finish(r.c.CorruptRead("%s/%s checksum mismatch", r.b.Container, r.b.Name))
		return
	}
	svc.containers[r.container][r.name] = svc.newBlob(r.container, r.name, r.size, r.c.Now())
	svc.uploads++
	r.finish(nil)
}

func (r *reqFlat) finish(err error) {
	n := r.size // a failed Put still reports the size it tried to upload
	if err != nil && r.op != bPut {
		n = 0
	}
	done, okDone, errDone := r.done, r.okDone, r.errDone
	r.c.Finish(err)
	// Clear the in-flight state before the callback so the continuation can
	// issue the session's next request immediately.
	r.sess, r.b = nil, nil
	r.okDone, r.errDone = nil, nil
	switch {
	case okDone != nil:
		okDone(n != 0, err)
	case errDone != nil:
		errDone(err)
	default:
		done(n, err)
	}
}
