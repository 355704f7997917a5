package modis

// sharded.go runs the ModisAzure campaign on a sim.Domains group — the
// coupled-workload counterpart of the embarrassingly decomposable fig1/fig2
// sharding. The partition:
//
//   - Domain 0 hosts the coordinator: the portal, the service manager, all
//     Request state, task dispatch and the campaign-level books, on a small
//     dedicated cloud (request table + service queue).
//   - The workload splits into cfg.Shards fixed shards, shard s on domain
//     s mod width. A shard owns a full cloud (fabric with its own
//     degradation stream, storage services), a slice of the worker fleet,
//     its partition of the task queue, and — under chaos — its own fault
//     engine.
//
// Everything that crosses a shard boundary is boundary mail on the group:
// task dispatches outbound, completion/retry/crash notes inbound. Raw mail
// reaches the coordinator in (source domain, send order) — an order that
// depends on the width, since co-located shards share a domain — so the
// coordinator buffers notes in an inbox and drains it in the canonical
// (send time, shard, per-shard seq) order once per boundary. Because the
// window grid is a pure function of simulation state, the set of notes per
// boundary, and with it every dispatch decision, RNG stream, and tallied
// stat, is bit-identical at every domain width. Shard identity (streams,
// cloud seeds, fleet split) keys off the shard index alone, never the
// domain, which is what lets the width be a pure performance knob.
//
// The timeout monitor's kill rule evaluates where the legacy path evaluates
// it — at the executing worker — but its verdicts (VMTimeout retries), like
// all completion traffic, travel to domain 0 as notes, so re-enqueue always
// crosses the window boundary and lands via round-robin on a fresh shard.

import (
	"fmt"
	"sort"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/chaos"
	"azureobs/internal/fabric"
	"azureobs/internal/oplog"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
)

// defaultShards is the fixed shard count: wide enough that the 8-rung bench
// ladder keeps every domain busy, small enough that shard fabrics stay
// cheap. The trace depends on this number, not on the domain width.
const defaultShards = 8

// Coordinator window tuning: the adaptive window starts at the minimum and
// self-tunes toward shardWindowTarget fired events per round, never
// exceeding the maximum (which bounds dispatch/completion mail latency to
// four simulated hours).
const (
	shardWindowMin    = time.Minute
	shardWindowMax    = 4 * time.Hour
	shardWindowTarget = 8192
)

// noteKind tags the shard→coordinator notifications.
type noteKind uint8

const (
	noteFinish noteKind = iota // execution completed or failed terminally
	noteRetry                  // retryable outcome, attempts remain
	noteCrash                  // host crash aborted the execution
	numNoteKinds
)

// taskNote is one shard→coordinator notification. at is the shard's clock
// at send time; (at, shard, seq) is the canonical drain order.
type taskNote struct {
	shard int
	seq   uint64
	at    time.Duration
	task  *Task
	kind  noteKind
}

// shard is one partition of the campaign's workload: a fleet on its own
// cloud, with its own task queue, RNG streams, stats and (under chaos)
// fault engine, fed by a dispatcher. Only this shard's engine goroutine
// touches it.
type shard struct {
	fleet
	idx       int
	dispatchQ *sim.Queue[*Task]

	// noteSeq stamps outbound notes; sent counts them by kind for the
	// conservation books.
	noteSeq uint64
	sent    [numNoteKinds]uint64
}

// newShardedCampaign assembles the sharded form. cfg already has defaults
// applied and cfg.Domains ≥ 1.
func newShardedCampaign(cfg Config) *Campaign {
	requested := cfg.Domains
	if cfg.Domains > cfg.Shards {
		cfg.Domains = cfg.Shards
	}
	group := sim.NewDomains(cfg.Domains)
	eng0 := group.Domain(0)

	// The coordinator cloud carries only the request table and service
	// queue: a small fabric, no degradation process (no workers run here).
	ccfg := azure.Config{Seed: cfg.Seed, Faults: cfg.StorageFaults}
	ccfg.Fabric = fabric.Config{Hosts: 8, HostsPerRack: 4}
	cloud := azure.NewCloudOn(eng0, ccfg)

	c := &Campaign{
		cfg:              cfg,
		cloud:            cloud,
		rng:              simrand.New(cfg.Seed).Fork("modis"),
		Stats:            newCampaignStats(cfg.Days),
		Log:              oplog.New(256),
		Analyzer:         oplog.NewTaxonomyAnalyzer(string(OutcomeVMTimeout)),
		group:            group,
		requestedDomains: requested,
	}
	c.retry = azure.DefaultRetryPolicy().WithJitter(0.5, c.rng.Fork("retry"))
	c.Log.Subscribe(c.Analyzer.Sink())
	cloud.Table.CreateTable("modis-requests")
	c.reqQueue = cloud.Queue.CreateQueue("modis-requests")
	c.reqTokens = sim.NewQueue[*Request]()

	dcfg := modisDegradation()
	if cfg.Degradation != nil {
		dcfg = *cfg.Degradation
	}
	var ch *chaos.Config
	if cfg.Chaos != nil && cfg.Chaos.Enabled() {
		cc := *cfg.Chaos
		if cc.Horizon == 0 {
			cc.Horizon = time.Duration(cfg.Days) * 24 * time.Hour
		}
		ch = &cc
	}

	c.shards = make([]*shard, cfg.Shards)
	for s := range c.shards {
		c.shards[s] = c.newShard(s, dcfg, ch)
	}
	return c
}

// newShard builds shard s. Everything about the shard — cloud seed, RNG
// roots, fleet slice — keys off s, so the shard's trace is invariant under
// the domain width.
func (c *Campaign) newShard(s int, dcfg fabric.DegradationConfig, ch *chaos.Config) *shard {
	cfg := c.cfg
	eng := c.group.Domain(s % c.group.N())

	scfg := azure.Config{Seed: cfg.Seed + uint64(s+1)*7919, Faults: cfg.StorageFaults}
	scfg.Fabric = fabric.Config{Hosts: 64, HostsPerRack: 16, Degradation: true}
	shardDeg := dcfg
	scfg.Fabric.DegradationConfig = &shardDeg
	cloud := azure.NewCloudOn(eng, scfg)

	// Fleet split: Workers/Shards each, the remainder spread from shard 0.
	n := cfg.Workers / cfg.Shards
	if s < cfg.Workers%cfg.Shards {
		n++
	}

	root := c.rng.ForkDomain(s)
	sh := &shard{
		fleet: fleet{
			camp:  c,
			name:  fmt.Sprintf("shard%d/", s),
			eng:   eng,
			cloud: cloud,
			rng:   root,
			retry: azure.DefaultRetryPolicy().WithJitter(0.5, root.Fork("retry")),
			stats: newCampaignStats(cfg.Days),
			log:   oplog.New(256),
			vms:   cloud.Controller.ReadyFleet(n, fabric.Worker, fabric.Small),
		},
		idx:       s,
		dispatchQ: sim.NewQueue[*Task](),
	}
	sh.shard = sh
	sh.queue = newTaskQueue(cloud, uint32(s)+1)
	if ch != nil {
		scc := *ch
		if s != 0 {
			// Scripted (deterministic, host-addressed) events land on
			// shard 0; the stochastic processes run on every shard, each
			// from its own label-forked stream.
			scc.Script = nil
		}
		sh.chaos = chaos.New(cloud, simrand.New(cfg.Seed).Fork("chaos").ForkDomain(s), scc)
		sh.reacqRNG = root.Fork("reacquire")
	}
	return sh
}

// runSharded executes the sharded campaign for its horizon.
func (c *Campaign) runSharded() *Stats {
	c.startIntake()
	for _, sh := range c.shards {
		sh.start()
	}
	c.group.SetAdaptiveWindow(shardWindowMin, shardWindowMax, shardWindowTarget)
	c.group.RunUntil(time.Duration(c.cfg.Days) * 24 * time.Hour)
	c.mergeShardStats()
	c.checkShardedConservation()
	if c.cfg.DomainStats != nil {
		c.cfg.DomainStats.Add(c.DomainStats())
	}
	return c.Stats
}

// start starts the shard's actors on its engine: the dispatcher, then the
// fleet.
func (sh *shard) start() {
	d := &dispatcher{sh: sh}
	d.init(sh.cloud, sh.name+"dispatcher", true, sh.stats, sh.retry)
	d.get.Bind(&d.a)
	d.onLoop = d.loop
	d.onTask = d.task
	d.a.Go(d.loop)
	sh.fleet.start()
}

// dispatchTask routes a task to the next shard in round-robin order and
// mails it across the window boundary. Coordinator kernel context only; the
// dispatch counter advances in coordinator event order, which the canonical
// inbox drain keeps width-invariant.
func (c *Campaign) dispatchTask(t *Task) {
	sh := c.shards[int(c.dispatchSeq%uint64(len(c.shards)))]
	c.dispatchSeq++
	c.cloud.Engine.Send(sh.eng.DomainIndex(), func() { sh.recvDispatch(t) })
}

// recvDispatch lands a mailed task on the shard (boundary event) and hands
// it to the dispatcher, which owns the storage side of enqueueing.
func (sh *shard) recvDispatch(t *Task) { sh.dispatchQ.Put(t) }

// dispatcher drains mailed tasks into the shard's real Azure queue — the
// storage operation the coordinator cannot perform from an event. It waits
// for work forever, so it is a daemon.
type dispatcher struct {
	agent
	sh  *shard
	get sim.Getter[*Task]

	onLoop func()
	onTask func(*Task)
}

func (d *dispatcher) loop()        { d.sh.dispatchQ.GetFlat(&d.get, d.onTask) }
func (d *dispatcher) task(t *Task) { d.enqueueOne(d.sh.queue, t, d.onLoop) }

// sendNote mails a notification to the coordinator. Shard kernel context
// only.
func (sh *shard) sendNote(kind noteKind, t *Task) {
	sh.noteSeq++
	sh.sent[kind]++
	n := taskNote{shard: sh.idx, seq: sh.noteSeq, at: sh.eng.Now(), task: t, kind: kind}
	sh.eng.Send(0, func() { sh.camp.recvNote(n) })
}

// recvNote buffers one boundary arrival and arms the inbox drain at the
// current instant — the same buffer-and-sort discipline the geo layer uses,
// because raw mail order depends on the domain width.
func (c *Campaign) recvNote(n taskNote) {
	c.inbox = append(c.inbox, n)
	if !c.inboxArmed {
		c.inboxArmed = true
		eng := c.cloud.Engine
		eng.Schedule(eng.Now(), c.drainInbox)
	}
}

// drainInbox applies one boundary's notes in the canonical (send time,
// shard, per-shard seq) order — a total order independent of the domain
// width, since the window grid assigns every note to the same boundary at
// every width. Nothing appends to the inbox while it drains: notes only
// arrive as boundary mail, and this boundary's mail has all landed (the
// drain event was scheduled after it, at the same instant).
func (c *Campaign) drainInbox() {
	c.inboxArmed = false
	notes := c.inbox
	c.inbox = c.inbox[:0]
	sort.Slice(notes, func(i, j int) bool {
		if notes[i].at != notes[j].at {
			return notes[i].at < notes[j].at
		}
		if notes[i].shard != notes[j].shard {
			return notes[i].shard < notes[j].shard
		}
		return notes[i].seq < notes[j].seq
	})
	now := c.cloud.Engine.Now()
	for i := range notes {
		n := notes[i]
		notes[i] = taskNote{} // the retained backing array holds no tasks
		c.applied[n.kind]++
		switch n.kind {
		case noteFinish:
			c.applyFinish(now, n.task)
		default: // noteRetry, noteCrash: back through dispatch
			c.dispatchTask(n.task)
		}
	}
}

// applyFinish retires a task at the coordinator — finishTask applied at
// inbox-drain time, with the next stage dispatched.
func (c *Campaign) applyFinish(now time.Duration, task *Task) {
	for _, t := range c.finishTask(now, task) {
		c.dispatchTask(t)
	}
}

// mergeShardStats folds every shard's books into the coordinator's Stats,
// in shard-index order — fixed by construction, so merged floats accumulate
// in one deterministic order at every width.
func (c *Campaign) mergeShardStats() {
	for _, sh := range c.shards {
		st := sh.stats
		for _, name := range st.TaskExecs.Names() {
			c.Stats.TaskExecs.Inc(name, st.TaskExecs.Get(name))
		}
		for _, name := range st.Outcomes.Names() {
			c.Stats.Outcomes.Inc(name, st.Outcomes.Get(name))
		}
		for _, name := range st.StorageErrors.Names() {
			c.Stats.StorageErrors.Inc(name, st.StorageErrors.Get(name))
		}
		for d := range st.DailyExecs {
			c.Stats.DailyExecs[d] += st.DailyExecs[d]
			c.Stats.DailyTimeouts[d] += st.DailyTimeouts[d]
		}
		c.Stats.Retries += st.Retries
		c.Stats.WastedSeconds += st.WastedSeconds
		c.Stats.FalseKills += st.FalseKills
		c.Stats.StorageRetries += st.StorageRetries
		c.Stats.CrashAborted += st.CrashAborted
		c.Stats.ReplacementVMs += st.ReplacementVMs
	}
}

// checkShardedConservation closes the sharded campaign's books. Per shard:
// every delivered task is accounted for by an execution, a crash abort, or
// a frozen in-flight execution; and every execution or crash abort emitted
// exactly one note. Campaign-wide: the coordinator never applies more notes
// of a kind than the shards sent — the difference is mail the horizon froze
// in transit.
func (c *Campaign) checkShardedConservation() {
	inv := c.cloud.Engine.Invariants()
	if inv == nil {
		return
	}
	var sent [numNoteKinds]uint64
	for _, sh := range c.shards {
		inFlight := sh.inFlight()
		execs := sh.stats.TotalExecs()
		inv.Checkf(sh.queue.delivered == execs+sh.stats.CrashAborted+inFlight,
			"shard %d task conservation: %d delivered != %d executions + %d crash-aborted + %d in flight",
			sh.idx, sh.queue.delivered, execs, sh.stats.CrashAborted, inFlight)
		inv.Checkf(sh.sent[noteFinish]+sh.sent[noteRetry] == execs,
			"shard %d note conservation: %d finish + %d retry notes != %d executions",
			sh.idx, sh.sent[noteFinish], sh.sent[noteRetry], execs)
		inv.Checkf(sh.sent[noteCrash] == sh.stats.CrashAborted,
			"shard %d crash-note conservation: %d crash notes != %d crash-aborted",
			sh.idx, sh.sent[noteCrash], sh.stats.CrashAborted)
		for k := range sent {
			sent[k] += sh.sent[k]
		}
	}
	for k := range sent {
		inv.Checkf(c.applied[k] <= sent[k],
			"note conservation: kind %d applied %d > sent %d", k, c.applied[k], sent[k])
	}
	inv.Checkf(c.finishes == c.applied[noteFinish],
		"finish bookkeeping: %d finishes != %d applied finish notes",
		c.finishes, c.applied[noteFinish])
}
