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
	"azureobs/internal/storage/queuesvc"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/storage/tablesvc"
)

// Config parameterises a ModisAzure campaign. Zero fields take the
// paper-scale defaults (Feb-Sep 2010: 242 days, ~200 workers, ~3.05M task
// executions).
type Config struct {
	Seed    uint64
	Days    int
	Workers int

	// MeanRequestGap is the mean portal inter-arrival time.
	MeanRequestGap time.Duration
	// MeanTasksPerRequest is the mean reprojection task count per request;
	// the other stages scale from it (see stage ratios below).
	MeanTasksPerRequest float64

	// KillMultiple is the timeout monitor threshold in multiples of the
	// task type's mean execution time (paper: 4x; effective kill happened
	// at 4.5-6x due to detection latency, modelled by DetectLo/Hi).
	KillMultiple       float64
	DetectLo, DetectHi float64

	// MaxAttempts caps executions per task including retries.
	MaxAttempts int

	// Degradation overrides the host-degradation episode process.
	Degradation *fabric.DegradationConfig

	// StorageFaults injects the same transient-fault mix into every storage
	// service the campaign touches (tables, queues, blobs) — the uniform
	// fault campaign. The campaign's storage calls run under the default
	// retry policy, so Table 2-style transient errors are mostly absorbed;
	// terminal failures are tallied in Stats.StorageErrors.
	StorageFaults reqpath.FaultConfig

	// Chaos, when non-nil and enabled, runs a whole-datacenter fault
	// campaign (host crashes, degradation windows, rack partitions, storage
	// outages) alongside the workload. The campaign survives via the same
	// retry and timeout-monitor machinery the paper's §5 study credits:
	// crashed workers' in-flight tasks are re-enqueued, and the fabric
	// re-acquires replacement VMs after a delay. The chaos streams are
	// label-forked, so a nil/disabled config leaves every trace
	// bit-identical.
	Chaos *chaos.Config
}

// DefaultConfig is the paper-scale campaign.
func DefaultConfig() Config {
	return Config{
		Seed:                42,
		Days:                242,
		Workers:             200,
		MeanRequestGap:      100 * time.Minute,
		MeanTasksPerRequest: 450,
		KillMultiple:        4,
		DetectLo:            1.1,
		DetectHi:            1.5,
		MaxAttempts:         5,
	}
}

// Stage ratios relative to a request's reprojection task count, derived from
// Table 2's execution mix after removing retry inflation (see DESIGN.md).
const (
	downloadPerReproj    = 0.089
	aggregationPerReproj = 0.0055
	reductionPerReproj   = 0.76
)

// modisDegradation returns the episode process calibrated for Fig. 7: rare
// episodes (about a dozen over the campaign) that strike 2-35% of hosts with
// a 4-6.5x slowdown for 2-18 h, yielding an overall VM-timeout share of
// ~0.17% of executions and daily spikes up to ~16%.
func modisDegradation() fabric.DegradationConfig {
	return fabric.DegradationConfig{
		MeanInterarrival: 320 * time.Hour,
		FracLo:           0.02,
		FracHi:           0.42,
		SlowLo:           4.0,
		SlowHi:           7.0,
		DurLo:            3 * time.Hour,
		DurHi:            22 * time.Hour,
	}
}

// Stats aggregates a campaign's observable outcomes.
type Stats struct {
	TaskExecs *metrics.CounterSet // executions per task type
	Outcomes  *metrics.CounterSet // executions per Table 2 outcome class

	DailyExecs    []uint64
	DailyTimeouts []uint64

	DistinctTasks uint64
	Requests      uint64
	Retries       uint64

	// Kill-ablation metrics: compute burned by monitor-killed executions
	// and kills of executions running on healthy hosts.
	WastedSeconds float64
	FalseKills    uint64

	// CompletedRequests counts requests whose final stage drained (the
	// user-notification event), and TurnaroundHours their submit-to-done
	// latency distribution.
	CompletedRequests uint64
	TurnaroundHours   *metrics.Sample

	// StorageRetries counts storage-operation attempts beyond the first
	// (the retry mechanism of Section 5.2 absorbing transient faults);
	// StorageErrors tallies operations that still failed after retrying,
	// keyed by "op/code".
	StorageRetries uint64
	StorageErrors  *metrics.CounterSet

	// CrashAborted counts executions cut short because a host crash killed
	// the worker mid-task. These are not monitor kills: they never record an
	// outcome, never touch FalseKills, and the interrupted task is
	// re-enqueued by the crash handler.
	CrashAborted uint64
	// ReplacementVMs counts workers the fabric re-acquired after crashes.
	ReplacementVMs uint64
}

// TotalExecs returns the total task execution count.
func (s *Stats) TotalExecs() uint64 { return s.TaskExecs.Total() }

// SuccessShare returns the fraction of executions recorded as Success.
func (s *Stats) SuccessShare() float64 {
	return float64(s.Outcomes.Get(string(OutcomeSuccess))) / float64(s.TotalExecs())
}

// TimeoutShare returns the fraction of executions killed by the VM timeout.
func (s *Stats) TimeoutShare() float64 {
	return float64(s.Outcomes.Get(string(OutcomeVMTimeout))) / float64(s.TotalExecs())
}

// Fig7Series returns the daily percentage of executions killed by the VM
// timeout (days without executions report 0).
func (s *Stats) Fig7Series() *metrics.TimeSeries {
	ts := &metrics.TimeSeries{}
	for d := range s.DailyExecs {
		pct := 0.0
		if s.DailyExecs[d] > 0 {
			pct = float64(s.DailyTimeouts[d]) / float64(s.DailyExecs[d]) * 100
		}
		ts.Add(time.Duration(d)*24*time.Hour, pct)
	}
	return ts
}

// Campaign is one ModisAzure deployment run.
type Campaign struct {
	cfg   Config
	cloud *azure.Cloud
	rng   *simrand.RNG
	Stats *Stats

	// Log receives one record per task execution (the Section 6.3
	// "logging and monitoring infrastructure"); Analyzer derives the
	// Table 2 / Fig. 7 views from that stream, as the paper's authors did
	// from their production logs.
	Log      *oplog.Log
	Analyzer *oplog.TaxonomyAnalyzer

	// retry wraps every storage call the campaign makes; with fault
	// injection off it never draws or sleeps, keeping fault-free campaigns
	// bit-identical.
	retry azure.RetryPolicy

	// fleet is the campaign's worker side.
	fleet *fleet

	// Request intake (Fig. 6): portal → request table + service queue →
	// service manager.
	reqQueue  *queuesvc.Queue
	reqTokens *sim.Queue[*Request]

	nextTaskID uint64
	nextReqID  uint64

	// finishes counts finishTask calls, a conservation counter checked
	// against the invariant harness at the end of Run.
	finishes uint64
}

// withDefaults fills zero fields from DefaultConfig.
func (cfg Config) withDefaults() Config {
	def := DefaultConfig()
	if cfg.Days == 0 {
		cfg.Days = def.Days
	}
	if cfg.Workers == 0 {
		cfg.Workers = def.Workers
	}
	if cfg.MeanRequestGap == 0 {
		cfg.MeanRequestGap = def.MeanRequestGap
	}
	if cfg.MeanTasksPerRequest == 0 {
		cfg.MeanTasksPerRequest = def.MeanTasksPerRequest
	}
	if cfg.KillMultiple == 0 {
		cfg.KillMultiple = def.KillMultiple
	}
	if cfg.DetectLo == 0 {
		cfg.DetectLo = def.DetectLo
	}
	if cfg.DetectHi == 0 {
		cfg.DetectHi = def.DetectHi
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = def.MaxAttempts
	}
	return cfg
}

// newCampaignStats allocates a Stats block with Table 2's row order
// pre-registered, so reports are stable even for classes that never occur
// at small scale.
func newCampaignStats(days int) *Stats {
	st := &Stats{
		TaskExecs:       metrics.NewCounterSet(),
		Outcomes:        metrics.NewCounterSet(),
		DailyExecs:      make([]uint64, days+1),
		DailyTimeouts:   make([]uint64, days+1),
		TurnaroundHours: metrics.NewSample(4096),
		StorageErrors:   metrics.NewCounterSet(),
	}
	for _, ty := range []TaskType{SourceDownload, Aggregation, Reprojection, Reduction} {
		st.TaskExecs.Inc(ty.String(), 0)
	}
	for _, o := range outcomeOrder {
		st.Outcomes.Inc(string(o), 0)
	}
	return st
}

// NewCampaign assembles a campaign.
func NewCampaign(cfg Config) *Campaign {
	cfg = cfg.withDefaults()
	ccfg := azure.Config{Seed: cfg.Seed, Faults: cfg.StorageFaults}
	ccfg.Fabric = fabric.DefaultConfig()
	ccfg.Fabric.Degradation = true
	dcfg := modisDegradation()
	if cfg.Degradation != nil {
		dcfg = *cfg.Degradation
	}
	ccfg.Fabric.DegradationConfig = &dcfg
	cloud := azure.NewCloud(ccfg)

	c := &Campaign{
		cfg:      cfg,
		cloud:    cloud,
		rng:      simrand.New(cfg.Seed).Fork("modis"),
		Stats:    newCampaignStats(cfg.Days),
		Log:      oplog.New(256),
		Analyzer: oplog.NewTaxonomyAnalyzer(string(OutcomeVMTimeout)),
	}
	c.retry = azure.DefaultRetryPolicy().WithJitter(0.5, c.rng.Fork("retry"))
	c.Log.Subscribe(c.Analyzer.Sink())
	c.fleet = &fleet{
		camp:  c,
		eng:   cloud.Engine,
		cloud: cloud,
		rng:   c.rng,
		retry: c.retry,
		stats: c.Stats,
		log:   c.Log,
		vms:   cloud.Controller.ReadyFleet(cfg.Workers, fabric.Worker, fabric.Small),
		queue: newTaskQueue(cloud),
	}
	// The request path of Fig. 6: the portal stores each request in an
	// Azure table and enqueues it on a service queue watched by the
	// service manager.
	cloud.Table.CreateTable("modis-requests")
	c.reqQueue = cloud.Queue.CreateQueue("modis-requests")
	c.reqTokens = sim.NewQueue[*Request]()
	if cfg.Chaos != nil && cfg.Chaos.Enabled() {
		ch := *cfg.Chaos
		if ch.Horizon == 0 {
			ch.Horizon = time.Duration(cfg.Days) * 24 * time.Hour
		}
		// The chaos root is forked from the campaign seed by label, exactly
		// like every other subsystem stream: with chaos off, nothing below
		// draws from it and every other stream is untouched.
		c.fleet.chaos = chaos.New(cloud, simrand.New(cfg.Seed).Fork("chaos"), ch)
		c.fleet.reacqRNG = c.rng.Fork("reacquire")
	}
	return c
}

// Cloud exposes the underlying cloud (tests and the CLI use it).
func (c *Campaign) Cloud() *azure.Cloud { return c.cloud }

// ChaosReport returns the fault-campaign taxonomy, or nil when chaos is off.
func (c *Campaign) ChaosReport() *chaos.Report {
	if c.fleet.chaos == nil {
		return nil
	}
	return c.fleet.chaos.Report()
}

// EnableInvariants turns on the kernel invariant harness for the
// campaign's engine. failFast=false records violations instead of
// panicking.
func (c *Campaign) EnableInvariants(failFast bool) { c.cloud.Engine.EnableInvariants(failFast) }

// InvariantViolations returns the recorded invariant violations (zero when
// the harness was never enabled).
func (c *Campaign) InvariantViolations() uint64 {
	return c.cloud.Engine.Invariants().ViolationCount()
}

// Run executes the campaign for its configured horizon.
func (c *Campaign) Run() *Stats {
	c.startIntake()
	c.fleet.start()
	c.cloud.Engine.RunUntil(time.Duration(c.cfg.Days) * 24 * time.Hour)
	c.checkConservation()
	if ch := c.fleet.chaos; ch != nil {
		ch.Report().Violations = c.InvariantViolations()
	}
	return c.Stats
}

// checkConservation closes the campaign's books against the invariant
// harness: every task handed to a worker is accounted for by a recorded
// execution, a crash abort (re-enqueued), or an in-flight execution frozen by
// the horizon; and every recorded execution either finished its task or
// retried it.
func (c *Campaign) checkConservation() {
	inv := c.cloud.Engine.Invariants()
	if inv == nil {
		return
	}
	inFlight := c.fleet.inFlight()
	execs := c.Stats.TotalExecs()
	inv.Checkf(c.fleet.queue.delivered == execs+c.Stats.CrashAborted+inFlight,
		"task conservation: %d delivered != %d executions + %d crash-aborted + %d in flight",
		c.fleet.queue.delivered, execs, c.Stats.CrashAborted, inFlight)
	inv.Checkf(execs == c.finishes+c.Stats.Retries,
		"execution conservation: %d executions != %d finishes + %d retries",
		execs, c.finishes, c.Stats.Retries)
}

// startIntake starts the request path of Fig. 6: the portal and the
// service manager.
func (c *Campaign) startIntake() {
	p := &portal{
		c:        c,
		gap:      simrand.Exponential{Rate: 1 / c.cfg.MeanRequestGap.Seconds()},
		sizeDist: simrand.LogNormalMeanCV(c.cfg.MeanTasksPerRequest, 1.0),
		rng:      c.rng.Fork("portal"),
		horizon:  time.Duration(c.cfg.Days) * 24 * time.Hour,
	}
	p.init(c.cloud, "portal", false, c.Stats, c.retry)
	p.onWake = p.submit
	p.onInserted = p.inserted
	p.onAdded = p.added
	p.a.Go(p.next)

	m := &manager{c: c, rng: c.rng.Fork("manager")}
	m.init(c.cloud, "service-manager", true, c.Stats, c.retry)
	m.get.Bind(&m.a)
	m.onLoop = m.loop
	m.onRequest = m.request
	m.onReceived = m.received
	m.onDeleted = m.deleted
	m.a.Go(m.loop)
}

// portal generates user requests for the campaign horizon. Each request
// takes the portal's side of Fig. 6: persist the request in the Azure
// table, enqueue it on the service queue, and wake the service manager.
type portal struct {
	agent
	c        *Campaign
	gap      simrand.Exponential
	sizeDist simrand.Dist
	rng      *simrand.RNG
	horizon  time.Duration
	req      *Request

	onWake              func()
	onInserted, onAdded func(error)
}

// next sleeps until the next arrival, or finishes when it would fall past
// the horizon.
func (p *portal) next() {
	gap := simrand.Duration(p.gap, p.rng)
	if p.a.Now()+gap >= p.horizon {
		p.a.Finish()
		return
	}
	p.a.Sleep(gap, p.onWake)
}

func (p *portal) submit() {
	c := p.c
	c.nextReqID++
	req := &Request{ID: c.nextReqID, submitted: p.a.Now()}
	nReproj := int(p.sizeDist.Sample(p.rng))
	if nReproj < 1 {
		nReproj = 1
	}
	req.planned = nReproj
	p.req = req
	p.insert("modis-requests", &tablesvc.Entity{
		PartitionKey: "requests",
		RowKey:       fmt.Sprintf("req-%08d", req.ID),
		Props: map[string]tablesvc.Prop{
			"Reprojections": tablesvc.IntProp(int64(nReproj)),
			"Status":        tablesvc.StrProp("submitted"),
		},
	}, p.onInserted)
}

func (p *portal) inserted(err error) {
	if err != nil {
		p.req = nil // request lost at the portal; tallied in StorageErrors
		p.next()
		return
	}
	p.add(p.c.reqQueue, strconv.FormatUint(p.req.ID, 10), nil, 512, p.onAdded)
}

func (p *portal) added(err error) {
	req := p.req
	p.req = nil
	if err == nil {
		p.c.reqTokens.Put(req)
		p.c.Stats.Requests++
	}
	p.next()
}

// manager is the service manager: it drains the service queue, expanding
// each request into its staged task set and releasing the first stage —
// the "service manager which manages the execution of the requests and
// their associated tasks" of Section 5.1. It waits for work forever, so it
// is a daemon.
type manager struct {
	agent
	c   *Campaign
	get sim.Getter[*Request]
	rng *simrand.RNG
	req *Request

	onLoop                func()
	onRequest             func(*Request)
	onReceived, onDeleted func(error)
}

func (m *manager) loop() { m.c.reqTokens.GetFlat(&m.get, m.onRequest) }

func (m *manager) request(req *Request) {
	m.req = req
	m.receive(m.c.reqQueue, m.onReceived)
}

func (m *manager) received(err error) {
	if err != nil || !m.ok {
		// Request stranded in the service queue (tallied), or no message.
		m.req, m.msg = nil, nil
		m.loop()
		return
	}
	// A failed delete leaves the message to reappear after its visibility
	// window; the request itself still proceeds.
	m.del(m.c.reqQueue, m.got, m.onDeleted)
}

func (m *manager) deleted(error) {
	c, req := m.c, m.req
	m.req, m.msg = nil, nil
	c.expandRequest(req, m.rng)
	m.enqueueRun(c.fleet.queue, c.releaseStage(m.a.Now(), req, 0), m.onLoop)
}

// expandRequest turns a request into staged tasks. The request's tasks
// live in one slab, and its per-stage lists are windows of one slice of
// pointers into it: two allocations per request, none per task.
func (c *Campaign) expandRequest(req *Request, rng *simrand.RNG) {
	nReproj := req.planned
	counts := [numTaskTypes]int{}
	counts[SourceDownload] = int(float64(nReproj)*downloadPerReproj + rng.Float64())
	counts[Aggregation] = int(float64(nReproj)*aggregationPerReproj + rng.Float64())
	counts[Reprojection] = nReproj
	counts[Reduction] = int(float64(nReproj)*reductionPerReproj + rng.Float64())
	total := 0
	for _, n := range counts {
		total += n
	}
	slab := make([]Task, total)
	ptrs := make([]*Task, total)
	wrng := c.rng.ForkN("work", int(req.ID))
	k := 0
	for _, ty := range stageOrder() {
		work := nominalWork(ty)
		start := k
		for ; k < start+counts[ty]; k++ {
			c.nextTaskID++
			t := &slab[k]
			t.ID, t.Type, t.Request = c.nextTaskID, ty, req
			t.Work = simrand.Duration(work, wrng)
			ptrs[k] = t
		}
		req.tasks[ty] = ptrs[start:k:k]
		req.remaining[ty] = counts[ty]
		c.Stats.DistinctTasks += uint64(counts[ty])
	}
}

// stageOrder is the pipeline order: collection precedes reprojection, which
// precedes aggregation, which precedes reduction (Section 5.1).
func stageOrder() []TaskType {
	return []TaskType{SourceDownload, Reprojection, Aggregation, Reduction}
}

// stageIndex returns a type's position in the pipeline order.
func stageIndex(ty TaskType) int {
	for i, t := range stageOrder() {
		if t == ty {
			return i
		}
	}
	return -1
}

// releaseStage returns the first non-empty stage at or after idx, for the
// caller to enqueue. When no stage remains the request is complete: the
// user is notified and the turnaround recorded ("upon completion ... an
// email is sent to the user", Section 5.1), and releaseStage returns nil.
func (c *Campaign) releaseStage(now time.Duration, req *Request, idx int) []*Task {
	order := stageOrder()
	for ; idx < len(order); idx++ {
		if ty := order[idx]; req.remaining[ty] > 0 {
			return req.tasks[ty]
		}
	}
	c.Stats.CompletedRequests++
	c.Stats.TurnaroundHours.Add((now - req.submitted).Hours())
	return nil
}

// finishTask retires a task and, when its stage drains, returns the next
// stage's tasks (see releaseStage).
func (c *Campaign) finishTask(now time.Duration, task *Task) []*Task {
	c.finishes++
	req := task.Request
	req.remaining[task.Type]--
	if req.remaining[task.Type] == 0 {
		return c.releaseStage(now, req, stageIndex(task.Type)+1)
	}
	return nil
}
