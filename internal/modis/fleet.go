package modis

import (
	"fmt"
	"strconv"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/chaos"
	"azureobs/internal/fabric"
	"azureobs/internal/metrics"
	"azureobs/internal/oplog"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
)

// fleet is the worker side of a campaign: the worker VMs and their actors,
// the task queue they drain, the books their executions land in and, under
// chaos, the fault engine and crash handling. Workers retire and re-enqueue
// tasks in place.
type fleet struct {
	camp *Campaign

	eng   *sim.Engine
	cloud *azure.Cloud
	rng   *simrand.RNG // root of the worker streams
	retry azure.RetryPolicy
	stats *Stats
	log   *oplog.Log
	chaos *chaos.Engine
	queue *taskQueue

	// vms, workers, current and execStart are indexed by worker slot;
	// vmSlot maps a live worker VM back to its slot so a host-crash
	// callback can find who died. workers[slot] is nil from a crash until
	// the replacement starts.
	vms       []*fabric.VM
	workers   []*worker
	current   []*Task
	execStart []time.Duration
	vmSlot    map[*fabric.VM]int
	reacqRNG  *simrand.RNG
	respawns  int

	// The books an execution lands in, resolved once from stats so that
	// recording an execution hashes no string: the per-type execution
	// counters, the monitor's timeout, and per task type the outcomes
	// drawOutcome indexes (the table's entries, then Success).
	execs   [numTaskTypes]metrics.Counter
	timeout outcomeBook
	books   [numTaskTypes][]outcomeBook
}

// outcomeBook is one outcome class as an execution records it: its name,
// its Stats.Outcomes counter, and its verdicts.
type outcomeBook struct {
	o         Outcome
	n         metrics.Counter
	completes bool
	retryable bool
}

func (f *fleet) book(o Outcome) outcomeBook {
	return outcomeBook{o: o, n: f.stats.Outcomes.Counter(string(o)), completes: o.Completes(), retryable: o.Retryable()}
}

// start builds and starts the worker actors, then the fault engine.
func (f *fleet) start() {
	f.timeout = f.book(OutcomeVMTimeout)
	for ty := range f.books {
		f.execs[ty] = f.stats.TaskExecs.Counter(TaskType(ty).String())
		for _, e := range outcomeTables[ty] {
			f.books[ty] = append(f.books[ty], f.book(e.o))
		}
		f.books[ty] = append(f.books[ty], f.book(OutcomeSuccess))
	}
	f.workers = make([]*worker, len(f.vms))
	f.current = make([]*Task, len(f.vms))
	f.execStart = make([]time.Duration, len(f.vms))
	for i, vm := range f.vms {
		f.workers[i] = f.newWorker(fmt.Sprintf("worker%d", i), vm, i, f.rng.ForkN("worker", i))
	}
	if f.chaos != nil {
		f.vmSlot = make(map[*fabric.VM]int, len(f.vms))
		for i, vm := range f.vms {
			f.vmSlot[vm] = i
		}
		f.cloud.DC.OnHostDown(f.onHostDown)
		f.chaos.Start()
	}
}

// inFlight counts executions the horizon froze mid-run.
func (f *fleet) inFlight() uint64 {
	var n uint64
	for _, t := range f.current {
		if t != nil {
			n++
		}
	}
	return n
}

// onHostDown is the fleet's crash handler (kernel context, fired inside
// CrashHost). For each failed worker VM it cancels the worker actor, hands
// whatever task it was executing back for re-enqueue (crediting the lost
// work to the chaos report), and starts the fabric re-acquisition of a
// replacement worker.
func (f *fleet) onHostDown(_ *fabric.Host, failed []*fabric.VM) {
	for _, vm := range failed {
		slot, ok := f.vmSlot[vm]
		if !ok {
			continue // not one of ours (or already handled)
		}
		delete(f.vmSlot, vm)
		if t := f.current[slot]; t != nil {
			f.chaos.Report().AddWorkLost(f.eng.Now() - f.execStart[slot])
			t.lost = true
			f.current[slot] = nil
			f.stats.CrashAborted++
			f.reclaim([]*Task{t})
		}
		if w := f.workers[slot]; w != nil {
			w.kill()
			f.workers[slot] = nil
		}
		f.respawns++
		f.reacquire(slot, f.respawns)
	}
}

// reclaim re-enqueues tasks a crash took from a worker on a short-lived
// actor of its own: re-enqueueing is a storage operation, and the crash
// path runs in kernel context.
func (f *fleet) reclaim(tasks []*Task) {
	r := &agent{}
	r.init(f.cloud, "reclaim/"+strconv.FormatUint(tasks[0].ID, 10), false, f.stats, f.retry)
	r.a.Go(func() { r.enqueueRun(f.queue, tasks, r.a.Finish) })
}

// reacquire is the fabric re-acquisition of slot's worker: after the
// paper's observed gap between a node failure and its capacity coming
// back, a replacement VM joins and a fresh worker starts on it with a
// stream of its own.
func (f *fleet) reacquire(slot, gen int) {
	a := &sim.Actor{}
	a.Bind(f.eng, fmt.Sprintf("reacquire/%d", gen))
	a.Go(func() {
		a.Sleep(simrand.Duration(simrand.Uniform{
			Lo: (10 * time.Minute).Seconds(), Hi: (45 * time.Minute).Seconds()}, f.reacqRNG), func() {
			nvm := f.cloud.Controller.ReplacementVM(fabric.Worker, fabric.Small)
			f.vms[slot] = nvm
			f.vmSlot[nvm] = slot
			f.stats.ReplacementVMs++
			rng := f.rng.ForkN("worker-r", gen)
			f.workers[slot] = f.newWorker(fmt.Sprintf("worker%d/r%d", slot, gen), nvm, slot, rng)
			a.Finish()
		})
	})
}

// Per-execution noise: the status-tracking overhead in seconds, and the
// multiplicative jitter on a task's dilated work.
var (
	execOverhead = simrand.LogNormalMeanCV(0.4, 0.3)
	execNoise    = simrand.LogNormalMeanCV(1, 0.08)
)

// worker is one worker role instance: it pulls tasks forever (the horizon
// bounds the campaign), executes each on its VM and passes the verdict on.
// A host crash cancels the actor; the crash handler starts a replacement
// on a new VM.
type worker struct {
	agent
	f    *fleet
	vm   *fabric.VM
	slot int
	rng  *simrand.RNG
	get  sim.Getter[uint64]

	// tok is the wakeup token being spent on a receive; credited while
	// the token still pairs with an undelivered message, so a worker
	// killed mid-receive gives it back.
	tok      uint64
	credited bool

	// The execution in flight: its task, start day, and whether the
	// monitor kills it at threshold.
	task      *Task
	day       int
	threshold time.Duration
	timedOut  bool

	onLoop, onExecuted    func()
	onToken               func(uint64)
	onReceived, onDeleted func(error)
}

func (f *fleet) newWorker(name string, vm *fabric.VM, slot int, rng *simrand.RNG) *worker {
	w := &worker{f: f, vm: vm, slot: slot, rng: rng}
	w.init(f.cloud, name, false, f.stats, f.retry)
	w.get.Bind(&w.a)
	w.onLoop = w.loop
	w.onExecuted = w.executed
	w.onToken = w.token
	w.onReceived = w.received
	w.onDeleted = w.deleted
	w.a.Go(w.loop)
	return w
}

// loop waits for a wakeup token: one per enqueued task.
func (w *worker) loop() { w.f.queue.tokens.GetFlat(&w.get, w.onToken) }

// token spends one wakeup token on receiving a task.
func (w *worker) token(tok uint64) {
	w.tok, w.credited = tok, true
	w.receive(w.f.queue.q, w.onReceived)
}

func (w *worker) received(err error) {
	if err != nil || !w.ok {
		// An error spends the token, stranding the message until its
		// visibility backstop; no message means the token raced one
		// already consumed.
		w.credited = false
		w.msg = nil
		w.loop()
		return
	}
	// A failed delete means this message reappears after its visibility
	// window — the stale-redelivery hazard of Section 5.2, handled in
	// deleted.
	w.del(w.f.queue.q, w.got, w.onDeleted)
}

func (w *worker) deleted(error) {
	tq := w.f.queue
	t := w.msg.Ref.(*Task)
	w.msg = nil
	if !t.queued {
		// Stale redelivery of a message whose earlier delete failed: its
		// task already ran. Discard and receive again on the same token,
		// which still has a live message to pair with.
		w.receive(tq.q, w.onReceived)
		return
	}
	t.queued = false
	w.credited = false
	tq.delivered++
	w.execute(t)
}

// execute runs one task execution on the VM.
func (w *worker) execute(task *Task) {
	f, cfg := w.f, &w.f.camp.cfg
	task.Attempts++
	// The in-flight marker is how the crash handler knows what this worker
	// was doing; it is cleared the instant the execution sleep ends, so a
	// monitor kill and a host crash landing on the same execution can never
	// both account for it (the FalseKills double-count hazard).
	f.current[w.slot] = task
	f.execStart[w.slot] = w.a.Now()
	day := int(w.a.Now() / (24 * time.Hour))
	if day >= len(f.stats.DailyExecs) {
		day = len(f.stats.DailyExecs) - 1
	}

	// Status-tracking overhead per execution (queue delete, table update):
	// folded into the execution time to keep the event count linear.
	overhead := simrand.Duration(execOverhead, w.rng)

	// Execution time: the task's nominal work, dilated by the host's
	// current slowdown, with small per-execution noise. The monitor kills
	// at KillMultiple x the task's own expected duration ("4x the average
	// completion time for that task", Section 5.2), plus detection latency
	// — so on healthy hosts nothing is killed, and a 4-6.5x degraded host
	// pushes most of its tasks past the threshold.
	noise := execNoise.Sample(w.rng)
	dilated := time.Duration(float64(task.Work) * w.vm.Host.Slowdown() * noise)
	threshold := time.Duration(cfg.KillMultiple * float64(task.Work) *
		simrand.Uniform{Lo: cfg.DetectLo, Hi: cfg.DetectHi}.Sample(w.rng))

	w.task, w.day, w.threshold = task, day, threshold
	w.timedOut = dilated > threshold
	if w.timedOut {
		// The task monitor kills the execution at the threshold and
		// reschedules the task (Section 5.2).
		w.a.Sleep(threshold+overhead, w.onExecuted)
	} else {
		w.a.Sleep(dilated+overhead, w.onExecuted)
	}
}

// executed records the execution's outcome and passes on the verdict.
func (w *worker) executed() {
	f, task, st := w.f, w.task, w.f.stats
	w.task = nil
	f.current[w.slot] = nil
	var outcome *outcomeBook
	if w.timedOut {
		outcome = &f.timeout
		st.DailyTimeouts[w.day]++
		st.recordKill(w.threshold, !w.vm.Host.Degraded())
	} else {
		outcome = &f.books[task.Type][drawOutcome(task.Type, w.rng)]
	}
	if task.lost && f.chaos != nil && outcome.completes {
		// A crash had interrupted an earlier attempt of this task; its
		// nominal work is now recovered through re-execution.
		f.chaos.Report().AddWorkRecovered(task.Work)
		task.lost = false
	}
	// Executions are recorded on completion (as the production system's
	// logs were); the day bucket is the start day, where the bulk of the
	// execution ran.
	f.execs[task.Type].Inc(1)
	st.DailyExecs[w.day]++
	outcome.n.Inc(1)
	sev := oplog.Info
	if !outcome.completes {
		sev = oplog.Error
	}
	f.log.Emit(oplog.Record{
		Time:     w.a.Now(),
		Severity: sev,
		Source:   w.vm.Name,
		Category: task.Type.String(),
		Event:    string(outcome.o),
		Task:     task.ID,
		Attempt:  task.Attempts,
	})

	// The verdict: a retryable failure with attempts left goes back on the
	// queue; completions and terminal failures retire the task (partial
	// products, as in the real system).
	retry := outcome.retryable && !outcome.completes && task.Attempts < f.camp.cfg.MaxAttempts
	if retry {
		st.Retries++
		w.enqueueOne(f.queue, task, w.onLoop)
		return
	}
	w.enqueueRun(f.queue, f.camp.finishTask(w.a.Now(), task), w.onLoop)
}

// kill withdraws the worker for the crash handler: its queue registration
// at once, the rest at the cancel's unwind event.
func (w *worker) kill() {
	w.get.Cancel()
	w.a.Cancel(w.unwind)
}

// unwind runs at the cancel's event and releases what the worker held: the
// queue op in flight, a token a Put had already handed over, a token being
// spent on a receive, and the unfinished part of an enqueue run — a retried
// task, or the stage its execution released. The task whose Add was in
// flight never reached the queue, and the rest were never tried, so all of
// them go to the reclaim path; otherwise the stage would never drain and
// its request never complete.
func (w *worker) unwind() {
	w.qr.Abort()
	w.get.Reput()
	if w.credited {
		w.credited = false
		w.f.queue.tokens.Put(w.tok)
	}
	if w.run != nil {
		rest := append([]*Task(nil), w.run[w.runIdx:]...)
		w.tq, w.run, w.runThen, w.one[0] = nil, nil, nil, nil
		w.f.reclaim(rest)
	}
}
