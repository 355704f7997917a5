// Package geo assembles N simulated Azure regions — each a full
// azure.Cloud on its own datacenter fabric — into one deterministic
// multi-datacenter world: long-haul trunk links join the regions, a
// geo-replicated blob container spans them (asynchronous replication with
// measurable lag; read-your-writes on the primary, eventual on
// secondaries), a heartbeat-driven global traffic manager routes
// per-region client populations with diurnal and flash-crowd arrival
// curves, and a chaos schedule can kill and repair a whole region to
// measure failover RTO/RPO.
//
// The whole world runs on one sim.Engine. Each region owns its cloud, RNG
// root (cfg.Seed + region·1_000_003), replica bookkeeping and population;
// regions share only the engine. Cross-region messages travel on a grid
// of windows: World.send stamps each message with a per-(src,dst)
// sequence number, and a message posted at virtual time s arrives at the
// next grid boundary (⌊s/Window⌋+1)·Window, after every event before that
// boundary has fired. A per-region drain event then runs the boundary's
// arrivals in (source region, sequence) order. World.Run keeps that
// order with a serial loop of engine windows (sim.Engine.RunWindow).
package geo

import (
	"sort"
	"strconv"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/chaos"
	"azureobs/internal/fabric"
	"azureobs/internal/netsim"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
)

// ConsistencyMode selects what a population's reads demand.
type ConsistencyMode int

const (
	// ReadEventual serves reads from the client's home replica (or a
	// failover target's replica): cheap, local, possibly stale by the
	// replication lag.
	ReadEventual ConsistencyMode = iota
	// ReadPrimary serves every read from the primary replica —
	// read-your-writes, at the price of cross-region round trips for
	// clients homed elsewhere.
	ReadPrimary
)

// Config sizes and scripts a multi-region world. Zero-valued fields take
// DefaultConfig values.
type Config struct {
	Seed    uint64
	Regions int
	Window  time.Duration // cross-region messages arrive on this virtual-time grid
	Horizon time.Duration // populations stop issuing at this virtual time

	// Population shape (per region).
	ClientsPerRegion int
	MeanThink        time.Duration
	WriteFrac        float64
	HotNames         int
	BlobBytes        int64
	ReadMode         ConsistencyMode
	Policy           Policy

	// Arrival-curve modulation: a diurnal sinusoid phase-shifted per
	// region plus an optional flash crowd multiplying one region's rate.
	DiurnalAmp  float64
	DayLength   time.Duration
	FlashRegion int
	FlashStart  time.Duration
	FlashDur    time.Duration // 0 disables the flash crowd
	FlashBoost  float64

	// Traffic manager: heartbeat probe period, the silence threshold that
	// marks a region down, and the hold-down before a repaired region is
	// routed to again (the anti-flap hysteresis).
	Heartbeat     time.Duration
	FailTimeout   time.Duration
	RepromoteHold time.Duration

	// Geography: long-haul trunk capacity and the one-way propagation
	// delay model BaseOneWay + HopOneWay·|i−j| (LocalProbe within a
	// region).
	TrunkBW    netsim.Bandwidth
	BaseOneWay time.Duration
	HopOneWay  time.Duration
	LocalProbe time.Duration

	// Per-region datacenter size.
	Hosts        int
	HostsPerRack int

	// Geo-replication: the primary region for the geo container.
	Primary int

	// Chaos schedule: KillAt > 0 kills KillRegion at that instant;
	// RepairAt > KillAt restores it.
	KillRegion int
	KillAt     time.Duration
	RepairAt   time.Duration

	// Observability: RecordReads keeps per-read records for the
	// consistency checker and stale-fraction accounting; LagSamples keeps
	// raw replication-lag samples for quantiles. Both off is the cheap
	// benchmarking mode.
	RecordReads bool
	LagSamples  bool
}

// DefaultConfig returns the calibrated small-world default: four regions
// at validation scale.
func DefaultConfig() Config {
	return Config{
		Seed:             42,
		Regions:          4,
		Window:           20 * time.Millisecond,
		Horizon:          120 * time.Second,
		ClientsPerRegion: 48,
		MeanThink:        2 * time.Second,
		WriteFrac:        0.1,
		HotNames:         16,
		BlobBytes:        256 << 10,
		DiurnalAmp:       0.6,
		DayLength:        240 * time.Second,
		FlashBoost:       4,
		Heartbeat:        2 * time.Second,
		FailTimeout:      5 * time.Second,
		RepromoteHold:    6 * time.Second,
		TrunkBW:          250 * netsim.MBps,
		BaseOneWay:       30 * time.Millisecond,
		HopOneWay:        25 * time.Millisecond,
		LocalProbe:       2 * time.Millisecond,
		Hosts:            32,
		HostsPerRack:     8,
	}
}

func (cfg Config) withDefaults() Config {
	def := DefaultConfig()
	if cfg.Regions == 0 {
		cfg.Regions = def.Regions
	}
	if cfg.Window == 0 {
		cfg.Window = def.Window
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = def.Horizon
	}
	if cfg.ClientsPerRegion == 0 {
		cfg.ClientsPerRegion = def.ClientsPerRegion
	}
	if cfg.MeanThink == 0 {
		cfg.MeanThink = def.MeanThink
	}
	if cfg.WriteFrac == 0 {
		cfg.WriteFrac = def.WriteFrac
	}
	if cfg.HotNames == 0 {
		cfg.HotNames = def.HotNames
	}
	if cfg.BlobBytes == 0 {
		cfg.BlobBytes = def.BlobBytes
	}
	if cfg.DayLength == 0 {
		cfg.DayLength = def.DayLength
	}
	if cfg.FlashBoost == 0 {
		cfg.FlashBoost = def.FlashBoost
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = def.Heartbeat
	}
	if cfg.FailTimeout == 0 {
		cfg.FailTimeout = def.FailTimeout
	}
	if cfg.RepromoteHold == 0 {
		cfg.RepromoteHold = def.RepromoteHold
	}
	if cfg.TrunkBW == 0 {
		cfg.TrunkBW = def.TrunkBW
	}
	if cfg.BaseOneWay == 0 {
		cfg.BaseOneWay = def.BaseOneWay
	}
	if cfg.HopOneWay == 0 {
		cfg.HopOneWay = def.HopOneWay
	}
	if cfg.LocalProbe == 0 {
		cfg.LocalProbe = def.LocalProbe
	}
	if cfg.Hosts == 0 {
		cfg.Hosts = def.Hosts
	}
	if cfg.HostsPerRack == 0 {
		cfg.HostsPerRack = def.HostsPerRack
	}
	return cfg
}

// Container is the geo-replicated blob container every region carries.
const Container = "geo"

// message is one canonicalized cross-region delivery.
type message struct {
	src, dst int
	seq      uint64
	fn       func()
}

// World is a running multi-region simulation.
type World struct {
	cfg     Config
	eng     *sim.Engine
	regions []*region
	store   *geoStore
	names   []string
	ran     bool

	// posted collects the messages posted in the current window. At the
	// window's boundary Run swaps it with due, the batch deliverFn hands to
	// the regions; the two buffers trade places every window, so delivery
	// allocates nothing in steady state.
	posted    []message
	due       []message
	deliverFn func()
}

// region is one datacenter plus everything homed in it.
type region struct {
	w     *World
	index int
	cloud *azure.Cloud
	lh    *fabric.LongHaul
	rng   *simrand.RNG

	router *Router
	gw     *gateway
	pumps  []*pump // primary region only: one per secondary, nil at self
	pop    *population

	down    bool
	deadVMs int

	outSeq     []uint64 // per-destination cross-region sequence numbers
	inbox      []message
	drainArmed bool
	drainFn    func()
}

func (r *region) eng() *sim.Engine { return r.cloud.Engine }

// NewWorld builds the regions, trunks, replicas, routers, populations and
// chaos schedule. Call Run once to execute to drain.
func NewWorld(cfg Config) *World {
	cfg = cfg.withDefaults()
	w := &World{cfg: cfg, eng: sim.NewEngine()}
	w.deliverFn = w.deliver

	w.names = make([]string, cfg.HotNames)
	for k := range w.names {
		w.names[k] = "obj-" + strconv.Itoa(k)
	}

	w.regions = make([]*region, cfg.Regions)
	for i := range w.regions {
		ccfg := azure.Config{
			Seed: cfg.Seed + uint64(i)*1_000_003,
			Fabric: fabric.Config{
				Hosts:        cfg.Hosts,
				HostsPerRack: cfg.HostsPerRack,
				Degradation:  false,
			},
		}
		cloud := azure.NewCloudOn(w.eng, ccfg)
		r := &region{
			w:      w,
			index:  i,
			cloud:  cloud,
			rng:    simrand.New(cfg.Seed+7_777_777).ForkN("georegion", i),
			outSeq: make([]uint64, cfg.Regions),
		}
		r.lh = fabric.NewLongHaul(cloud.DC, i, w.oneWayRow(i), cfg.TrunkBW)
		r.drainFn = r.drainInbox
		w.regions[i] = r
	}

	w.store = newGeoStore(w, cfg.Primary)
	for _, r := range w.regions {
		r.router = newRouter(r)
		r.gw = newGateway(r)
		r.pop = newPopulation(r)
		r.scheduleHeartbeat(1)
	}

	if cfg.KillAt > 0 {
		kr := w.regions[cfg.KillRegion]
		kr.eng().Schedule(cfg.KillAt, func() { w.kill(cfg.KillRegion) })
		if cfg.RepairAt > cfg.KillAt {
			kr.eng().Schedule(cfg.RepairAt, func() { w.repair(cfg.KillRegion) })
		}
	}
	return w
}

// Run executes the world to drain, one window of the message grid at a
// time: fire the events before the boundary, schedule the delivery of the
// window's messages at the boundary, and jump over windows with no event.
// The delivery is scheduled only after every event before the boundary has
// fired, so it runs after the events already pending at the boundary and
// before any scheduled there later.
func (w *World) Run() {
	if w.ran {
		panic("geo: World.Run called twice")
	}
	w.ran = true
	win := w.cfg.Window
	var boundary time.Duration
	for {
		next, ok := w.eng.RunWindow(boundary)
		if len(w.posted) > 0 {
			w.posted, w.due = w.due, w.posted
			w.eng.Schedule(boundary, w.deliverFn)
			next, ok = boundary, true
		}
		if !ok {
			return
		}
		boundary = (next/win + 1) * win
	}
}

// deliver hands one boundary's messages, in posting order, to their
// destination regions. It fires before the next window's boundary, so due
// is empty again by the time Run swaps the buffers.
func (w *World) deliver() {
	for i, m := range w.due {
		w.regions[m.dst].enqueue(m)
		w.due[i] = message{}
	}
	w.due = w.due[:0]
}

// Now returns the world's virtual clock.
func (w *World) Now() time.Duration { return w.eng.Now() }

// oneWayRow builds region i's propagation-delay row: LocalProbe at self,
// BaseOneWay + HopOneWay·distance elsewhere.
func (w *World) oneWayRow(i int) []time.Duration {
	row := make([]time.Duration, w.cfg.Regions)
	for j := range row {
		row[j] = w.oneWay(i, j)
	}
	return row
}

func (w *World) oneWay(i, j int) time.Duration {
	if i == j {
		return w.cfg.LocalProbe
	}
	d := i - j
	if d < 0 {
		d = -d
	}
	return w.cfg.BaseOneWay + time.Duration(d)*w.cfg.HopOneWay
}

// send posts fn to region dst at now+delay; it arrives at the first window
// boundary after that instant. The (src, seq) stamp fixes the execution
// order among same-boundary arrivals.
func (w *World) send(src, dst int, delay time.Duration, fn func()) {
	r := w.regions[src]
	m := message{src: src, dst: dst, seq: r.outSeq[dst], fn: fn}
	r.outSeq[dst]++
	w.eng.Schedule(w.eng.Now()+delay, func() { w.posted = append(w.posted, m) })
}

// enqueue buffers a boundary arrival and arms the region's drain at the
// current instant. The boundary's delivery event enqueues every arrival
// before the drain runs (the drain is scheduled later at the same
// timestamp), so the drain sees the complete arrival set and can sort it
// canonically.
func (r *region) enqueue(m message) {
	r.inbox = append(r.inbox, m)
	if !r.drainArmed {
		r.drainArmed = true
		eng := r.eng()
		eng.Schedule(eng.Now(), r.drainFn)
	}
}

// drainInbox executes one boundary's arrivals in (source region, sequence)
// order.
func (r *region) drainInbox() {
	r.drainArmed = false
	msgs := r.inbox
	r.inbox = nil
	sort.Slice(msgs, func(i, j int) bool {
		if msgs[i].src != msgs[j].src {
			return msgs[i].src < msgs[j].src
		}
		return msgs[i].seq < msgs[j].seq
	})
	for _, m := range msgs {
		m.fn()
	}
}

// scheduleHeartbeat arms the k-th health-probe tick. Ticks are foreground
// events on the absolute grid k·Heartbeat, gated by the horizon, so every
// region beats the same number of times however long other work keeps the
// engine busy.
func (r *region) scheduleHeartbeat(k int64) {
	at := time.Duration(k) * r.w.cfg.Heartbeat
	if at > r.w.cfg.Horizon {
		return
	}
	r.eng().Schedule(at, func() {
		r.beat()
		r.scheduleHeartbeat(k + 1)
	})
}

// beat sends one health probe to every region (including a loopback probe
// to self, so a region's own router tracks local health uniformly). A down
// region stops beating, which is exactly what its peers' routers detect.
func (r *region) beat() {
	if r.down {
		return
	}
	src := r.index
	for dst := range r.w.regions {
		target := r.w.regions[dst]
		r.w.send(src, dst, r.w.oneWay(src, dst), func() {
			target.router.heard(src)
		})
	}
}

// kill takes region i down: every host crashes, storage goes dark, pumps
// and heartbeats stall. Runs in region i's engine context at cfg.KillAt.
func (w *World) kill(i int) {
	r := w.regions[i]
	r.down = true
	r.deadVMs = chaos.KillRegion(r.cloud)
}

// repair restores region i: hosts reboot, outages lift, buffered
// replication applies, and the region's own replication pumps (when it is
// the primary) resume draining their backlog.
func (w *World) repair(i int) {
	r := w.regions[i]
	chaos.RestoreRegion(r.cloud)
	r.down = false
	w.store.replicas[i].applyPending(r)
	for _, p := range r.pumps {
		if p != nil {
			p.kick()
		}
	}
}
