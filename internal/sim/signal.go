package sim

import "time"

// Signal is a broadcast condition: processes Wait on it and are all released
// by the next Fire. It carries no payload; pair it with shared state the
// waker updates before firing. The zero value is usable.
type Signal struct {
	waiters []*sigWaiter
	fires   uint64
}

// sigWaiter parks either a process or a flat actor; exactly one of p and a
// is set. Actor waiters are embedded in the Actor and reused, so flat waits
// allocate nothing.
type sigWaiter struct {
	p        *Proc
	a        *Actor
	released bool
	timedOut bool
}

// wake releases the parked party at the current instant; both sides schedule
// exactly one engine-owned wake event, so mixed proc/actor waiter lists fire
// in arrival order with identical traces.
func (w *sigWaiter) wake() {
	if w.p != nil {
		w.p.wakeNow()
	} else {
		w.a.wakeNow()
	}
}

// Fires returns how many times the signal has fired.
func (s *Signal) Fires() uint64 { return s.fires }

// Waiting returns the number of parked processes.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Wait parks the process until the next Fire.
func (s *Signal) Wait(p *Proc) {
	p.killCheck()
	w := &sigWaiter{p: p}
	s.waiters = append(s.waiters, w)
	p.suspend(func() { s.remove(w) })
}

// WaitTimeout parks the process until the next Fire or until d elapses,
// whichever is first. It reports whether the wait timed out.
func (s *Signal) WaitTimeout(p *Proc, d time.Duration) (timedOut bool) {
	p.killCheck()
	w := &sigWaiter{p: p}
	s.waiters = append(s.waiters, w)
	timer := p.eng.After(d, func() {
		if w.released {
			return
		}
		w.released = true
		w.timedOut = true
		s.remove(w)
		w.p.wakeNow()
	})
	// CancelRecycle rather than Cancel: the timer is dead either way (fired
	// or canceled), and this hands the allocation back to the event pool.
	defer p.eng.CancelRecycle(timer)
	p.suspend(func() { s.remove(w) })
	return w.timedOut
}

// Fire releases every currently parked process, in arrival order. Processes
// that start waiting after Fire returns wait for the next one.
func (s *Signal) Fire() {
	s.fires++
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		if w.released {
			continue
		}
		w.released = true
		w.wake()
	}
}

// FireOne releases the longest-waiting parked process, if any, and reports
// whether one was released.
func (s *Signal) FireOne() bool {
	for len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		if w.released {
			continue
		}
		s.fires++
		w.released = true
		w.wake()
		return true
	}
	return false
}

// WaitFlat parks a flat actor on the signal: the next Fire runs then at the
// fire instant, exactly when a parked process's wake would run. The actor's
// embedded waiter is reused, so the wait allocates nothing — which also
// means an actor can wait on at most one signal at a time. There is no flat
// timeout wait; actors needing one stay on the process API.
func (s *Signal) WaitFlat(a *Actor, then func()) {
	a.arm(then)
	a.waiter = sigWaiter{a: a}
	if a.proc != nil {
		a.proc.flatSig = s
	}
	s.waiters = append(s.waiters, &a.waiter)
}

// CancelFlat withdraws a's pending WaitFlat registration on s, so that the
// owner can then withdraw the actor with Actor.Cancel; it is the signal's
// counterpart of Getter.Cancel and removes the waiter as Proc.Kill does for
// a parked process. It does nothing if a is not waiting on s (a Fire already
// released it, or it never waited).
func (s *Signal) CancelFlat(a *Actor) {
	if w := &a.waiter; !w.released && s.remove(w) {
		w.released = true
	}
}

// remove takes w off the waiter list and reports whether it was there.
func (s *Signal) remove(w *sigWaiter) bool {
	for i, q := range s.waiters {
		if q == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return true
		}
	}
	return false
}
