package geo

import (
	"time"

	"azureobs/internal/metrics"
	"azureobs/internal/sim"
	"azureobs/internal/storage/blobsvc"
)

// The geo-replication protocol, in one paragraph: all writes commit at the
// single primary region, which assigns a global, monotonically increasing
// version and appends a commit record to its log. One replication pump per
// secondary then streams committed records out asynchronously — each
// record's payload crosses the primary's long-haul trunk (contending with
// every other flow on that fabric), rides the one-way propagation delay,
// and applies at the secondary in strict version order (a single-source
// FIFO, so every secondary's state is always some prefix of the primary's
// log). Replication lag is the apply instant minus the commit instant —
// the quantity the fig8geo experiments measure — and a region's visible
// version for a name is what its local reads serve, which is what makes
// eventual staleness and read-your-writes observable, checkable
// quantities.

// commitRec is one committed write in the primary's log. Version is
// 1-based; index Version-1 addresses the log slice.
type commitRec struct {
	Version uint64
	Name    int // hot-name index
	Size    int64
	Commit  time.Duration
}

// geoStore is the world-spanning geo-replicated container: the primary's
// commit log plus one replica bookkeeping block per region. The log and
// version counter are owned by the primary region's engine; each replica
// block is owned by its region's engine; the post-run report reads it all
// single-threaded.
type geoStore struct {
	w        *World
	primary  int
	nextVer  uint64
	commits  []commitRec
	replicas []*replicaState
}

// replicaState is one region's view of the geo container.
type replicaState struct {
	region  int
	vals    []uint64        // per hot name: latest locally visible version
	applyAt []time.Duration // applyAt[v-1] = when version v became visible here
	pending []commitRec
	applies int64
	lag     metrics.Summary
	lagS    *metrics.Sample
}

func newGeoStore(w *World, primary int) *geoStore {
	st := &geoStore{w: w, primary: primary}
	st.replicas = make([]*replicaState, w.cfg.Regions)
	for i, r := range w.regions {
		rs := &replicaState{region: i, vals: make([]uint64, w.cfg.HotNames)}
		if w.cfg.LagSamples && i != primary {
			rs.lagS = metrics.NewSample(4096)
		}
		st.replicas[i] = rs
		// Every region carries version 0 of every hot name from the start,
		// so no read path ever sees NotFound.
		for _, name := range w.names {
			r.cloud.Blob.Seed(Container, name, w.cfg.BlobBytes)
		}
	}
	pr := w.regions[primary]
	pr.pumps = make([]*pump, w.cfg.Regions)
	for i := range w.regions {
		if i == primary {
			continue
		}
		pr.pumps[i] = newPump(pr, i)
	}
	return st
}

// commit assigns the next version at the primary, applies it locally
// (read-your-writes: a primary read after the ack always sees it) and
// hands it to every replication pump. Must run in the primary's engine
// context; callers are the primary's own clients and the primary gateway
// serving forwarded writes.
func (st *geoStore) commit(name int, size int64) commitRec {
	pr := st.w.regions[st.primary]
	st.nextVer++
	rec := commitRec{Version: st.nextVer, Name: name, Size: size, Commit: pr.eng().Now()}
	st.commits = append(st.commits, rec)
	rs := st.replicas[st.primary]
	rs.vals[name] = rec.Version
	rs.applyAt = append(rs.applyAt, rec.Commit)
	for _, p := range pr.pumps {
		if p != nil {
			p.enqueue(rec)
		}
	}
	return rec
}

// applyCommit makes one replicated version visible at a secondary. While
// the region is down the record is buffered — durable storage survives the
// outage, but a dark region serves nothing and its apply instant is the
// repair instant. Runs in the secondary's engine context (inside a drain).
func (r *region) applyCommit(rec commitRec) {
	rs := r.w.store.replicas[r.index]
	if r.down {
		rs.pending = append(rs.pending, rec)
		return
	}
	rs.applyOne(r, rec)
}

func (rs *replicaState) applyOne(r *region, rec commitRec) {
	now := r.eng().Now()
	if rec.Version > rs.vals[rec.Name] {
		rs.vals[rec.Name] = rec.Version
	}
	rs.applyAt = append(rs.applyAt, now)
	rs.applies++
	lag := now - rec.Commit
	rs.lag.AddDuration(lag)
	if rs.lagS != nil {
		rs.lagS.AddDuration(lag)
	}
	// Hot-set sizes are constant, so the local blob copy normally already
	// matches and Apply is a no-op.
	r.cloud.Blob.Apply(Container, r.w.names[rec.Name], rec.Size)
}

// applyPending drains the records buffered during an outage, in version
// order (they arrived in order and were buffered in order).
func (rs *replicaState) applyPending(r *region) {
	pend := rs.pending
	rs.pending = nil
	for _, rec := range pend {
		rs.applyOne(r, rec)
	}
}

// pump streams the primary's commit log toward one secondary: an actor
// that, for each queued record, pushes the payload through the primary's
// long-haul trunk (capacity-shared with all other primary egress) and then
// schedules the apply after the one-way propagation delay. A region kill
// freezes the pump mid-queue — the unsent suffix is the RPO exposure — and
// repair resumes it.
type pump struct {
	r    *region // the primary region
	dst  int
	a    sim.Actor
	q    []commitRec
	head int
	busy bool
	cur  commitRec

	onStep func()
	onSent func()
}

func newPump(pr *region, dst int) *pump {
	p := &pump{r: pr, dst: dst}
	p.a.Bind(pr.eng(), "geo-pump")
	p.onStep = p.step
	p.onSent = p.sent
	return p
}

func (p *pump) enqueue(rec commitRec) {
	p.q = append(p.q, rec)
	if !p.busy && !p.r.down {
		p.busy = true
		p.a.Go(p.onStep)
	}
}

// kick resumes a pump stalled by an outage.
func (p *pump) kick() {
	if !p.busy && p.head < len(p.q) {
		p.busy = true
		p.a.Go(p.onStep)
	}
}

func (p *pump) step() {
	if p.r.down {
		p.busy = false
		p.a.Finish()
		return
	}
	if p.head == len(p.q) {
		p.q = p.q[:0]
		p.head = 0
		p.busy = false
		p.a.Finish()
		return
	}
	p.cur = p.q[p.head]
	p.r.cloud.DC.Net().TransferFlat(&p.a, p.cur.Size, p.onSent, p.r.lh.Trunk(p.dst))
}

func (p *pump) sent() {
	if p.r.down {
		// The region died mid-transfer; the record stays queued and the
		// bytes are resent after repair.
		p.busy = false
		p.a.Finish()
		return
	}
	rec := p.cur
	p.head++
	dst := p.dst
	w := p.r.w
	w.send(p.r.index, dst, w.oneWay(p.r.index, dst), func() {
		w.regions[dst].applyCommit(rec)
	})
	p.step()
}

// gateway serves cross-region requests arriving at a region: forwarded
// writes landing at the primary, and remote reads from populations that
// failed over (eventual mode) or are homed elsewhere (read-your-writes
// mode). Each in-flight request holds a pooled remoteOp — an actor with
// its own blob session — so concurrent remote requests contend on the
// region's storage like any local client would.
type gateway struct {
	r    *region
	free []*remoteOp
	made int
}

func newGateway(r *region) *gateway { return &gateway{r: r} }

// remoteOp is one cross-region request being served.
type remoteOp struct {
	gw   *gateway
	a    sim.Actor
	sess *blobsvc.Session

	cl    *client
	write bool
	name  int
	size  int64
	from  int

	ver     uint64
	serveAt time.Duration
	err     error

	onStart func()
	onBlob  func(int64, error)
	onTrunk func()
}

func (g *gateway) acquire() *remoteOp {
	if n := len(g.free); n > 0 {
		op := g.free[n-1]
		g.free = g.free[:n-1]
		return op
	}
	op := &remoteOp{gw: g}
	op.a.Bind(g.r.eng(), "geo-gw")
	// Gateway session ids live far above the client id range so their
	// random streams never collide with local populations.
	op.sess = g.r.cloud.Blob.NewSession(1_000_000 + g.made)
	g.made++
	op.onStart = op.start
	op.onBlob = op.blobDone
	op.onTrunk = op.trunkDone
	return op
}

// handle admits one forwarded request. Runs in this region's engine
// context (inside a drain).
func (g *gateway) handle(cl *client, write bool, name int, size int64, from int) {
	op := g.acquire()
	op.cl, op.write, op.name, op.size, op.from = cl, write, name, size, from
	op.ver, op.serveAt, op.err = 0, 0, nil
	op.a.Go(op.onStart)
}

func (op *remoteOp) start() {
	r := op.gw.r
	if op.write {
		op.sess.PutFlat(&op.a, Container, r.w.names[op.name], op.size, true, op.onBlob)
		return
	}
	// The version snapshot is the read's linearization point: taken here,
	// at the serving replica, before the timed download.
	rs := r.w.store.replicas[r.index]
	op.ver = rs.vals[op.name]
	op.serveAt = op.a.Now()
	op.sess.GetFlat(&op.a, Container, r.w.names[op.name], op.onBlob)
}

func (op *remoteOp) blobDone(size int64, err error) {
	if err != nil {
		op.err = err
		op.respond()
		return
	}
	r := op.gw.r
	if op.write {
		rec := r.w.store.commit(op.name, op.size)
		op.ver = rec.Version
		op.serveAt = rec.Commit
		op.respond()
		return
	}
	// Ship the payload home across this region's long-haul trunk.
	r.cloud.DC.Net().TransferFlat(&op.a, size, op.onTrunk, r.lh.Trunk(op.from))
}

func (op *remoteOp) trunkDone() { op.respond() }

func (op *remoteOp) respond() {
	r := op.gw.r
	cl, server, ver, serveAt, err := op.cl, r.index, op.ver, op.serveAt, op.err
	r.w.send(server, op.from, r.w.oneWay(server, op.from), func() {
		cl.remoteDone(server, ver, serveAt, err)
	})
	op.cl = nil
	op.err = nil
	g := op.gw
	op.a.Finish()
	g.free = append(g.free, op)
}
