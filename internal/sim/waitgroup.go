package sim

// WaitGroup tracks a set of outstanding activities; Wait parks the caller
// until the count reaches zero. It is the simulated analogue of
// sync.WaitGroup for fork-join patterns such as parallel range downloads.
// The zero value is ready to use.
type WaitGroup struct {
	count int
	done  Signal
}

// Add increases (or with negative delta decreases) the outstanding count.
// A count dropping to zero releases all waiters; dropping below zero panics.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("sim: WaitGroup count below zero")
	}
	if wg.count == 0 {
		wg.done.Fire()
	}
}

// Done decrements the count by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count returns the outstanding count.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait parks the process until the count is zero. A zero count returns
// immediately.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.done.Wait(p)
}

// Go spawns fn as a process accounted in the wait group: Add(1) now,
// Done when fn returns.
func (wg *WaitGroup) Go(e *Engine, name string, fn func(p *Proc)) *Proc {
	wg.Add(1)
	return e.Spawn(name, func(p *Proc) {
		defer wg.Done()
		fn(p)
	})
}
