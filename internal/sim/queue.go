package sim

// Queue is an unbounded FIFO message store connecting producer and consumer
// processes. Put never blocks; Get blocks until an item is available. It is
// the kernel-level building block under the simulated Azure queue service
// and the ModisAzure task queues.
type Queue[T any] struct {
	items   []T
	getters []*getWaiter[T]
	puts    uint64
	gets    uint64
}

// getWaiter parks either a process or a flat actor (Getter); exactly one of
// p and a is set.
type getWaiter[T any] struct {
	p        *Proc
	a        *Actor
	item     T
	released bool
}

// wake releases the parked party at the current instant; both sides
// schedule exactly one engine-owned wake event, as for signal waiters.
func (w *getWaiter[T]) wake() {
	if w.p != nil {
		w.p.wakeNow()
	} else {
		w.a.wakeNow()
	}
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Waiting returns the number of blocked consumers.
func (q *Queue[T]) Waiting() int { return len(q.getters) }

// Puts returns the total number of items ever put.
func (q *Queue[T]) Puts() uint64 { return q.puts }

// Gets returns the total number of items ever delivered.
func (q *Queue[T]) Gets() uint64 { return q.gets }

// Put appends an item, waking the longest-waiting consumer if any. It may be
// called from any kernel-context code.
func (q *Queue[T]) Put(item T) {
	q.puts++
	if len(q.getters) > 0 {
		w := q.getters[0]
		q.getters = q.getters[1:]
		w.released = true
		w.item = item
		q.gets++
		w.wake()
		return
	}
	q.items = append(q.items, item)
}

// TryGet removes and returns the head item without blocking, reporting
// whether one was available.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	item := q.items[0]
	q.items = q.items[1:]
	q.gets++
	return item, true
}

// check asserts item conservation: everything ever put was either delivered
// or is still buffered. A cancelled consumer's Reput is the spot this
// guards.
func (q *Queue[T]) check(e *Engine) {
	// Test before calling Checkf: its variadic arguments box on every call.
	if q.puts != q.gets+uint64(len(q.items)) {
		e.Invariants().Checkf(false,
			"queue conservation: %d puts != %d gets + %d buffered", q.puts, q.gets, len(q.items))
	}
}

// Get removes and returns the head item, blocking the process until one is
// available. Consumers are served in FIFO order.
func (q *Queue[T]) Get(p *Proc) T {
	q.check(p.eng)
	if item, ok := q.TryGet(); ok {
		return item
	}
	w := &getWaiter[T]{p: p}
	q.getters = append(q.getters, w)
	p.suspend()
	return w.item
}

// Getter is a flat actor's reusable consumer registration on a Queue: the
// actor-side mirror of a process parked in Get. It is bound to one actor
// and holds one outstanding GetFlat at a time, so parking allocates
// nothing.
type Getter[T any] struct {
	w      getWaiter[T]
	q      *Queue[T] // the queue parked on; nil when not parked
	then   func(T)
	onWake func() // cached: delivers the handed-over item
}

// Bind attaches the getter to the actor whose continuations it runs.
func (g *Getter[T]) Bind(a *Actor) {
	g.w.a = a
	g.onWake = g.deliver
}

// GetFlat is Get for a flat actor: with an item buffered, then runs at once
// with it, as Get returns without parking; otherwise the actor parks on the
// queue, and the Put that hands it an item schedules its wake at that
// instant — the same event and sequence number a parked process's wake
// takes — which runs then with the item.
func (q *Queue[T]) GetFlat(g *Getter[T], then func(item T)) {
	a := g.w.a
	if a == nil {
		panic("sim: Getter not bound")
	}
	q.check(a.eng)
	if item, ok := q.TryGet(); ok {
		then(item)
		return
	}
	a.arm(g.onWake)
	g.q, g.then = q, then
	g.w.released = false
	q.getters = append(q.getters, &g.w)
}

func (g *Getter[T]) deliver() {
	var zero T
	item, then := g.w.item, g.then
	g.q, g.then, g.w.item = nil, nil, zero
	then(item)
}

// Cancel withdraws a pending GetFlat, for an actor its owner cancels
// (Actor.Cancel): a registration still waiting leaves the queue at once.
// If a Put had already handed the getter an item, the item stays with it
// until Reput.
func (g *Getter[T]) Cancel() {
	if g.q == nil || g.w.released {
		return
	}
	g.q.removeGetter(&g.w)
	g.q, g.then = nil, nil
}

// Reput runs in a cancelled actor's unwind: an item a Put handed over but
// whose wake the cancel pre-empted goes back to the head of the queue, so
// no item is lost.
func (g *Getter[T]) Reput() {
	q := g.q
	if q == nil {
		return
	}
	var zero T
	q.items = append([]T{g.w.item}, q.items...)
	q.gets--
	g.q, g.then, g.w.item = nil, nil, zero
}

func (q *Queue[T]) removeGetter(w *getWaiter[T]) {
	for i, g := range q.getters {
		if g == w {
			q.getters = append(q.getters[:i], q.getters[i+1:]...)
			return
		}
	}
}
