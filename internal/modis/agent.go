package modis

import (
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/sim"
	"azureobs/internal/storage/queuesvc"
	"azureobs/internal/storage/storerr"
	"azureobs/internal/storage/tablesvc"
)

// Every activity of the campaign — the portal, the service manager, the
// workers and the crash path's reclaim and re-acquire helpers — is a sim.Actor state machine: it arms a cached
// continuation where a process would block and returns to the kernel, so
// the campaign runs on no goroutine but the one driving the engine. Each
// stage schedules exactly the event a blocking process would (a sleep's
// wake, a queue hand-over's wake, a station visit's end), in the same
// order; TestCampaignGoldens pins the resulting traces.

// recvVisibility is how long a received message stays hidden: explicit
// status tracking deletes it long before, so the window is a backstop.
const recvVisibility = 2 * time.Hour

// opKind selects the storage op an agent's retry loop issues.
type opKind uint8

const (
	opInsert  opKind = iota // table insert
	opAdd                   // queue add
	opReceive               // queue receive
	opDelete                // queue delete
)

// agent is the storage plumbing every campaign actor shares: the actor, one
// queue request state and one table write state, driven under an embedded
// retry loop — the "robust retry mechanisms" the paper found indispensable
// (Section 5.2). Retries and terminal failures are booked against books;
// the terminal error (nil on success) goes to the op's continuation, so
// callers shed the affected work instead of crashing the campaign. One op
// is in flight at a time.
type agent struct {
	a     sim.Actor
	books *Stats
	retry azure.Retry
	qr    queuesvc.ReqFlat
	tw    tablesvc.WriteFlat

	// The op in flight: its kind and label, the attempts so far, its
	// arguments and its continuation.
	kind  opKind
	name  string
	tries int
	q     *queuesvc.Queue
	body  string
	ref   any
	size  int
	rcpt  queuesvc.Receipt
	tname string
	ent   *tablesvc.Entity
	done  func(error)

	// Receive's results: the message, its receipt, and whether one was
	// visible.
	msg *queuesvc.Message
	got queuesvc.Receipt
	ok  bool

	// The enqueue run in flight (enqueueRun): the tasks, the next one's
	// index, and what runs once the last is enqueued. one backs single-task
	// runs.
	tq      *taskQueue
	run     []*Task
	runIdx  int
	runThen func()
	one     [1]*Task

	onAdd      func(uint64, error)
	onRecv     func(*queuesvc.Message, queuesvc.Receipt, bool, error)
	onDone     func(error)
	onEnqueued func(error)
}

// init binds the agent to eng as name (a daemon actor when daemon is set)
// and prepares its request states against cloud's services.
func (ag *agent) init(cloud *azure.Cloud, name string, daemon bool, books *Stats, policy azure.RetryPolicy) {
	if daemon {
		ag.a.BindDaemon(cloud.Engine, name)
	} else {
		ag.a.Bind(cloud.Engine, name)
	}
	ag.books = books
	ag.retry.Policy = policy
	ag.retry.Init(ag.attempt, ag.finished)
	ag.onAdd = func(_ uint64, err error) { ag.retry.Done(err) }
	ag.onRecv = ag.received
	ag.onDone = ag.retry.Done
	ag.qr.Init(cloud.Queue)
	ag.tw.Init(cloud.Table, ag.onDone)
	ag.onEnqueued = ag.enqueued
}

// insert, add, receive and del issue one op under the retry loop; done
// receives its terminal error.
func (ag *agent) insert(table string, e *tablesvc.Entity, done func(error)) {
	ag.tname, ag.ent = table, e
	ag.begin(opInsert, "table.Insert", done)
}

func (ag *agent) add(q *queuesvc.Queue, body string, ref any, size int, done func(error)) {
	ag.q, ag.body, ag.ref, ag.size = q, body, ref, size
	ag.begin(opAdd, "queue.Add", done)
}

func (ag *agent) receive(q *queuesvc.Queue, done func(error)) {
	ag.q = q
	ag.begin(opReceive, "queue.Receive", done)
}

func (ag *agent) del(q *queuesvc.Queue, rcpt queuesvc.Receipt, done func(error)) {
	ag.q, ag.rcpt = q, rcpt
	ag.begin(opDelete, "queue.Delete", done)
}

func (ag *agent) begin(kind opKind, name string, done func(error)) {
	ag.kind, ag.name, ag.done, ag.tries = kind, name, done, 0
	ag.retry.Begin(&ag.a)
}

// attempt issues one try of the op in flight.
func (ag *agent) attempt() {
	ag.tries++
	switch ag.kind {
	case opInsert:
		ag.tw.BeginInsert(&ag.a, ag.tname, ag.ent)
	case opAdd:
		ag.qr.BeginAdd(&ag.a, ag.q, ag.body, ag.ref, ag.size, ag.onAdd)
	case opReceive:
		ag.qr.BeginReceive(&ag.a, ag.q, recvVisibility, ag.onRecv)
	case opDelete:
		ag.qr.BeginDelete(&ag.a, ag.q, ag.rcpt, ag.onDone)
	}
}

func (ag *agent) received(m *queuesvc.Message, rcpt queuesvc.Receipt, ok bool, err error) {
	ag.msg, ag.got, ag.ok = m, rcpt, ok
	ag.retry.Done(err)
}

// finished books the op's retries and terminal failure, then hands the
// outcome to its continuation.
func (ag *agent) finished(err error) {
	if ag.tries > 1 {
		ag.books.StorageRetries += uint64(ag.tries - 1)
	}
	if err != nil {
		ag.books.StorageErrors.Inc(ag.name+"/"+string(storerr.CodeOf(err)), 1)
	}
	done := ag.done
	ag.done, ag.q, ag.body, ag.ref, ag.ent = nil, nil, "", nil, nil
	done(err)
}

// taskQueue couples the real Azure queue service with an instant wakeup
// queue so idle workers do not busy-poll across months of simulated time.
// (The production system polled; the token queue reproduces the same FIFO
// delivery without 10^8 empty polls.) Each task message carries its task
// as the message's Ref; the task's queued flag says whether that message
// is still live (see Task).
type taskQueue struct {
	q      *queuesvc.Queue
	tokens *sim.Queue[uint64]

	// delivered counts tasks handed to workers — one side of the
	// delivered == executions + crash-aborted + in-flight conservation
	// equation checked at the end of a run.
	delivered uint64
}

func newTaskQueue(cloud *azure.Cloud) *taskQueue {
	return &taskQueue{
		q:      cloud.Queue.CreateQueue("modis-tasks"),
		tokens: sim.NewQueue[uint64](),
	}
}

// enqueueRun adds tasks to tq one queue op at a time, each followed by a
// wakeup token for one worker, then runs then. A task whose Add fails
// terminally is lost (its stage never drains) — the production hazard the
// explicit status tables were built to detect.
func (ag *agent) enqueueRun(tq *taskQueue, tasks []*Task, then func()) {
	ag.tq, ag.run, ag.runIdx, ag.runThen = tq, tasks, 0, then
	ag.enqueueNext()
}

// enqueueOne is enqueueRun for a single task.
func (ag *agent) enqueueOne(tq *taskQueue, t *Task, then func()) {
	ag.one[0] = t
	ag.enqueueRun(tq, ag.one[:], then)
}

func (ag *agent) enqueueNext() {
	if ag.runIdx == len(ag.run) {
		then := ag.runThen
		ag.one[0] = nil
		ag.tq, ag.run, ag.runThen = nil, nil, nil
		then()
		return
	}
	t := ag.run[ag.runIdx]
	t.queued = true
	ag.add(ag.tq.q, "", t, 1024, ag.onEnqueued)
}

func (ag *agent) enqueued(err error) {
	t := ag.run[ag.runIdx]
	ag.runIdx++
	if err != nil {
		t.queued = false
	} else {
		ag.tq.tokens.Put(t.ID)
	}
	ag.enqueueNext()
}
