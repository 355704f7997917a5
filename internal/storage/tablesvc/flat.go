package tablesvc

import (
	"slices"
	"strings"
	"time"

	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/storage/station"
	"azureobs/internal/storage/storerr"
)

// The table ops are flat state machines — their only implementation. A
// kernel-driven caller owns one request state per op family (GetFlat,
// WriteFlat, QueryFlat), runs it on its own actor, and reuses it for every
// request it ever issues, so steady-state requests allocate nothing. The
// blocking methods (Get, Insert, ...) drive a pooled state on the calling
// process through sim.Proc.Drive.
//
// The table pipeline has no request-latency stage: AdmitPre never asks for
// a sleep, so admission runs straight through without scheduling a wake.

// admit runs admission for c; it reports the admission fault, if any.
func admit(c *reqpath.CtxFlat) error {
	if _, _, err := c.AdmitPre(); err != nil {
		return err
	}
	return c.AdmitPost()
}

// GetFlat is the request state for table Get: admission, partition lookup,
// the query-station visit with the response's download cost added, the
// not-found reply (decided at lookup, delivered after the visit), hook
// delivery, then done.
type GetFlat struct {
	svc *Service
	c   reqpath.CtxFlat

	ent  *Entity
	err  error // the not-found reply the visit ends with
	done func(*Entity, error)

	afterVisit func() // cached: runs when the station visit's sleep ends
}

// NewGetFlat builds Get state against the service; done receives every
// request's outcome.
func (s *Service) NewGetFlat(done func(*Entity, error)) *GetFlat {
	r := &GetFlat{}
	r.Init(s, done)
	return r
}

// Init prepares an embedded (zero-value) GetFlat in place — the allocation-
// free alternative to NewGetFlat for callers that inline the state in a
// larger per-client struct.
func (r *GetFlat) Init(s *Service, done func(*Entity, error)) {
	if r.svc != nil {
		panic("tablesvc: GetFlat initialised twice")
	}
	r.svc = s
	r.done = done
	r.afterVisit = r.visited
}

// Begin issues one Get on actor a. A second Begin before done fires panics
// — the state holds one request (so do the other request states).
func (r *GetFlat) Begin(a *sim.Actor, table, pk, rk string) {
	r.c.Begin(r.svc.pl, "table.Query", a)
	if err := admit(&r.c); err != nil {
		r.finish(err)
		return
	}
	t, part := r.svc.lookup(table, pk)
	if t == nil {
		r.finish(r.c.Failf(storerr.CodeNotFound, "table %s", table))
		return
	}
	rw, ok := part[rk]
	if !ok {
		r.err = r.c.Failf(storerr.CodeNotFound, "%s/%s", pk, rk)
	}
	r.ent = rw.ent
	r.c.Visit(r.svc.query, r.c.DownloadCost(rw.size), r.afterVisit)
}

func (r *GetFlat) visited() {
	r.c.EndVisit()
	r.finish(r.err)
}

func (r *GetFlat) finish(err error) {
	ent := r.ent
	if err != nil {
		ent = nil
	}
	r.c.Finish(err)
	// Clear the in-flight state before the callback so the continuation can
	// issue the next query immediately.
	r.ent, r.err = nil, nil
	r.done(ent, err)
}

// target is the partition a write or scan works on: its table, found on
// arrival, and its key. The partition itself is looked up afresh at each
// use, because a delete drops a partition the moment it empties: a request
// that held the map across a wait could write to, or read from, an orphan
// that a later insert has replaced.
type target struct {
	tab map[string]partition
	pk  string
}

// find looks up table, to work on its partition pk; it reports whether the
// table exists.
func (t *target) find(s *Service, table, pk string) bool {
	t.tab, t.pk = s.tables[table], pk
	return t.tab != nil
}

// rows returns the partition as it is now, nil when it holds no row.
func (t *target) rows() partition { return t.tab[t.pk] }

// wop selects which write-class table operation a WriteFlat runs.
type wop int

const (
	wInsert wop = iota
	wUpdate
	wDelete
)

// WriteFlat is the request state for the write-class table ops (Insert,
// Update, Delete): admission → partition lookup → overload draw (a hit
// burns ServerTimeout, counts a service timeout, and replies
// OperationTimedOut without visiting the station) → station visit → the
// conflict/not-found check → mutation → hook delivery → done. Insert and
// Update check the row when the visit ends; Delete judges not-found by the
// row's presence on arrival. Insert and Update take the entity's size once,
// on arrival, and store it with the row.
type WriteFlat struct {
	svc *Service
	c   reqpath.CtxFlat

	target
	op    wop
	ent   *Entity // insert/update payload
	size  int     // ent's size
	rk    string  // delete target
	found bool    // the delete target existed when the request arrived
	rho   float64 // overload diagnostic for the timeout reply
	done  func(error)

	afterVisit   func() // cached: runs when the station visit's sleep ends
	afterTimeout func() // cached: runs when the overload burn ends
}

// NewWriteFlat builds write state against the service; done receives every
// request's outcome.
func (s *Service) NewWriteFlat(done func(error)) *WriteFlat {
	r := &WriteFlat{}
	r.Init(s, done)
	return r
}

// Init prepares an embedded (zero-value) WriteFlat in place.
func (r *WriteFlat) Init(s *Service, done func(error)) {
	if r.svc != nil {
		panic("tablesvc: WriteFlat initialised twice")
	}
	r.svc = s
	r.done = done
	r.afterVisit = r.visited
	r.afterTimeout = r.timedOut
}

// BeginInsert issues one Insert on actor a; inserting an existing (pk, rk)
// is a conflict.
func (r *WriteFlat) BeginInsert(a *sim.Actor, table string, e *Entity) {
	r.op, r.ent = wInsert, e
	if r.begin(a, "table.Insert", table, e.PartitionKey) {
		r.size = e.Size()
		r.write(r.svc.insert, r.size, r.c.UploadCost(r.size))
	}
}

// BeginUpdate issues one Update on actor a: an unconditional replace (no
// ETag check), the mode the paper tested so concurrent clients can hit one
// entity. Updates have no overload stage: the paper's hot-entity contention
// is the station's.
func (r *WriteFlat) BeginUpdate(a *sim.Actor, table string, e *Entity) {
	r.op, r.ent = wUpdate, e
	if r.begin(a, "table.Update", table, e.PartitionKey) {
		r.size = e.Size()
		r.c.Visit(r.svc.update, r.c.UploadCost(r.size), r.afterVisit)
	}
}

// BeginDelete issues one Delete on actor a.
func (r *WriteFlat) BeginDelete(a *sim.Actor, table, pk, rk string) {
	r.op, r.rk = wDelete, rk
	if !r.begin(a, "table.Delete", table, pk) {
		return
	}
	rw, ok := r.rows()[rk]
	r.found = ok
	r.write(r.svc.delete, rw.size, 0)
}

// begin runs admission and the table lookup; it reports whether the request
// is still alive.
func (r *WriteFlat) begin(a *sim.Actor, op, table, pk string) bool {
	r.c.Begin(r.svc.pl, op, a)
	if err := admit(&r.c); err != nil {
		r.finish(err)
		return false
	}
	if !r.find(r.svc, table, pk) {
		r.finish(r.c.Failf(storerr.CodeNotFound, "table %s", table))
		return false
	}
	return true
}

// write runs the ingest-overload model for a size-byte write at st — with n
// concurrent clients pushing size-byte payloads at the station's mean rate,
// per-op timeout probability is OverloadK·(1−1/ρ) once offered load ρ
// exceeds 1 — and on a miss visits st with extra added to the service
// time.
func (r *WriteFlat) write(st *station.Station, size int, extra time.Duration) {
	s := r.svc
	n := max(st.Attached(), 1)
	rho := float64(n) * float64(size) / st.MeanLatency(n).Seconds() / float64(s.cfg.IngestCapacity)
	if rho > 1 && r.c.TimeoutHit(s.cfg.OverloadK*(1-1/rho)) {
		r.rho = rho
		r.c.Sleep(r.c.ServerTimeout(), r.afterTimeout)
		return
	}
	r.c.Visit(st, extra, r.afterVisit)
}

func (r *WriteFlat) timedOut() {
	r.svc.timeouts++
	r.finish(r.c.TimeoutErrf("partition ingest overloaded (rho=%.2f)", r.rho))
}

func (r *WriteFlat) visited() {
	r.c.EndVisit()
	switch r.op {
	case wInsert:
		if _, exists := r.rows()[r.ent.RowKey]; exists {
			r.finish(r.c.Failf(storerr.CodeConflict, "%s/%s exists", r.ent.PartitionKey, r.ent.RowKey))
			return
		}
		addPartition(r.tab, r.pk)[r.ent.RowKey] = row{ent: r.ent, size: r.size}
	case wUpdate:
		part := r.rows()
		if _, ok := part[r.ent.RowKey]; !ok {
			r.finish(r.c.Failf(storerr.CodeNotFound, "%s/%s", r.ent.PartitionKey, r.ent.RowKey))
			return
		}
		part[r.ent.RowKey] = row{ent: r.ent, size: r.size}
	case wDelete:
		if !r.found {
			r.finish(r.c.Failf(storerr.CodeNotFound, "%s/%s", r.pk, r.rk))
			return
		}
		part := r.rows()
		delete(part, r.rk)
		if len(part) == 0 {
			delete(r.tab, r.pk)
		}
	}
	r.finish(nil)
}

func (r *WriteFlat) finish(err error) {
	r.c.Finish(err)
	// Clear the in-flight state before the callback so the continuation can
	// issue the next write immediately.
	r.ent, r.target = nil, target{}
	r.done(err)
}

// QueryFlat is the request state for property-filter partition scans — the
// non-indexed query the paper warns against (Section 6.1): scan latency
// grows with partition size and concurrent scanners, and requests exceeding
// the server timeout fail.
//
// Stages: admission → partition lookup → scan registration → a zero-length
// sleep (so a burst of simultaneous scans registers before any member
// prices its cost) → the lognormal scan draw → either the ServerTimeout
// burn and an OperationTimedOut reply, or the scan sleep and collection.
// Matches are returned in ascending RowKey order.
type QueryFlat struct {
	svc *Service
	c   reqpath.CtxFlat

	target
	pred func(*Entity) bool
	out  []*Entity
	done func([]*Entity, error)

	afterYield   func() // cached: runs after the registration yield
	afterScan    func() // cached: runs when the scan sleep ends
	afterTimeout func() // cached: runs when the timeout burn ends
}

// NewQueryFlat builds scan state against the service; done receives every
// request's outcome.
func (s *Service) NewQueryFlat(done func([]*Entity, error)) *QueryFlat {
	r := &QueryFlat{}
	r.Init(s, done)
	return r
}

// Init prepares an embedded (zero-value) QueryFlat in place.
func (r *QueryFlat) Init(s *Service, done func([]*Entity, error)) {
	if r.svc != nil {
		panic("tablesvc: QueryFlat initialised twice")
	}
	r.svc = s
	r.done = done
	r.afterYield = r.yielded
	r.afterScan = r.scanned
	r.afterTimeout = r.timedOut
}

// Begin issues one scan on actor a. A nil pred matches every entity — the
// whole-partition query the wire facade serves.
func (r *QueryFlat) Begin(a *sim.Actor, table, pk string, pred func(*Entity) bool) {
	r.pred = pred
	r.c.Begin(r.svc.pl, "table.QueryFilter", a)
	if err := admit(&r.c); err != nil {
		r.finish(err)
		return
	}
	if !r.find(r.svc, table, pk) {
		r.finish(r.c.Failf(storerr.CodeNotFound, "table %s", table))
		return
	}
	r.svc.scans++ // a concurrent scan until its scan or timeout burn ends
	r.c.Sleep(0, r.afterYield)
}

func (r *QueryFlat) yielded() {
	s := r.svc
	mean := float64(len(r.rows())) * s.cfg.ScanSecPerEntity * (1 + float64(s.scans)/s.cfg.ScanConcurrencyN0)
	lat := r.c.Sample(simrand.LogNormalMeanCV(mean, s.cfg.ScanCV))
	if lat > s.cfg.ServerTimeout {
		// The timeout is counted when the deadline is judged blown, before
		// the burn; the scan stays registered until the burn ends.
		s.timeouts++
		r.c.Sleep(r.c.ServerTimeout(), r.afterTimeout)
		return
	}
	r.c.Sleep(lat, r.afterScan)
}

func (r *QueryFlat) timedOut() {
	n := len(r.rows())
	r.svc.scans--
	r.finish(r.c.TimeoutErrf("scan of %d entities timed out", n))
}

func (r *QueryFlat) scanned() {
	for _, rw := range r.rows() {
		if r.pred == nil || r.pred(rw.ent) {
			r.out = append(r.out, rw.ent)
		}
	}
	slices.SortFunc(r.out, func(a, b *Entity) int { return strings.Compare(a.RowKey, b.RowKey) })
	r.svc.scans--
	r.finish(nil)
}

func (r *QueryFlat) finish(err error) {
	out := r.out
	if err != nil {
		out = nil
	}
	r.c.Finish(err)
	// Clear the in-flight state before the callback so the continuation can
	// issue the next scan immediately.
	r.target, r.pred, r.out = target{}, nil, nil
	r.done(out, err)
}
