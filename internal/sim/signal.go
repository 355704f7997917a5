package sim

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
	s.waiters = append(s.waiters, &sigWaiter{p: p})
	p.suspend()
}

// Fire releases every currently parked process, in arrival order. Processes
// that start waiting after Fire returns wait for the next one.
func (s *Signal) Fire() {
	s.fires++
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		w.released = true
		w.wake()
	}
}

// FireOne releases the longest-waiting parked process, if any, and reports
// whether one was released.
func (s *Signal) FireOne() bool {
	if len(s.waiters) == 0 {
		return false
	}
	w := s.waiters[0]
	s.waiters = s.waiters[1:]
	s.fires++
	w.released = true
	w.wake()
	return true
}

// WaitFlat parks a flat actor on the signal: the next Fire runs then at the
// fire instant, exactly when a parked process's wake would run. The actor's
// embedded waiter is reused, so the wait allocates nothing — which also
// means an actor can wait on at most one signal at a time.
func (s *Signal) WaitFlat(a *Actor, then func()) {
	a.arm(then)
	a.waiter = sigWaiter{a: a}
	s.waiters = append(s.waiters, &a.waiter)
}

// CancelFlat withdraws a's pending WaitFlat registration on s, so that the
// owner can then withdraw the actor with Actor.Cancel; it is the signal's
// counterpart of Getter.Cancel. It does nothing if a is not waiting on s (a
// Fire already released it, or it never waited).
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
