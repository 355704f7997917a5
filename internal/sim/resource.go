package sim

import "fmt"

// Resource is a counted, FIFO-fair resource: a pool of capacity units that
// processes acquire and release. It models k-server stations (service
// front-ends, disk arms, CPU cores). The zero value is unusable; create one
// with NewResource.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiters  []*resWaiter

	// stats
	totalAcquired uint64
	maxQueue      int
}

type resWaiter struct {
	p       *Proc
	n       int
	granted bool
}

// NewResource creates a resource with the given capacity (> 0).
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	return &Resource{eng: eng, name: name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// MaxQueueLen returns the high-water mark of the wait queue.
func (r *Resource) MaxQueueLen() int { return r.maxQueue }

// TotalAcquired returns the number of successful acquisitions.
func (r *Resource) TotalAcquired() uint64 { return r.totalAcquired }

// Acquire obtains n units (1 ≤ n ≤ capacity), blocking in FIFO order until
// they are available. A process killed while waiting is removed from the
// queue and unwound.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d of resource %q (capacity %d)", n, r.name, r.capacity))
	}
	p.killCheck()
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		r.totalAcquired++
		r.check()
		return
	}
	w := &resWaiter{p: p, n: n}
	r.waiters = append(r.waiters, w)
	if len(r.waiters) > r.maxQueue {
		r.maxQueue = len(r.waiters)
	}
	defer func() {
		if rec := recover(); rec != nil {
			// Killed while waiting. If the grant had already landed but the
			// wakeup was pre-empted by the kill, give the units back.
			if w.granted {
				r.inUse -= w.n
				r.totalAcquired--
				r.grant()
			}
			panic(rec)
		}
	}()
	p.suspend(func() { r.remove(w) })
}

// TryAcquire obtains n units only if immediately available, returning
// whether it succeeded. It never blocks and never queues.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: try-acquire %d of resource %q (capacity %d)", n, r.name, r.capacity))
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		r.totalAcquired++
		return true
	}
	return false
}

// Release returns n units and grants as many queued waiters as now fit, in
// FIFO order. Release may be called from any kernel-context code, including
// a different process from the acquirer.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("sim: release %d of resource %q (in use %d)", n, r.name, r.inUse))
	}
	r.inUse -= n
	r.grant()
}

func (r *Resource) grant() {
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if r.inUse+w.n > r.capacity {
			return // strict FIFO: do not let later small requests overtake
		}
		r.waiters = r.waiters[1:]
		r.inUse += w.n
		r.totalAcquired++
		w.granted = true
		w.p.wakeNow()
	}
	r.check()
}

// check asserts the resource level is inside [0, capacity]; the unwind paths
// (a killed waiter returning a pre-empted grant) are the historically fragile
// spots this guards.
func (r *Resource) check() {
	// Test before calling Checkf: its variadic arguments box on every call.
	if r.inUse < 0 || r.inUse > r.capacity {
		r.eng.Invariants().Checkf(false,
			"resource %q level %d outside [0, %d]", r.name, r.inUse, r.capacity)
	}
}

func (r *Resource) remove(w *resWaiter) {
	for i, q := range r.waiters {
		if q == w {
			r.waiters = append(r.waiters[:i], r.waiters[i+1:]...)
			return
		}
	}
}

// Use acquires n units, runs the critical section for the given service
// time, and releases. It is the common pattern for modelling a station
// visit.
func (r *Resource) Use(p *Proc, n int, hold func()) {
	r.Acquire(p, n)
	defer r.Release(n)
	hold()
}
