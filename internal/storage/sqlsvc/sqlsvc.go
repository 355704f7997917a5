// Package sqlsvc simulates SQL Azure Database as evaluated in the HPDC 2010
// version of the paper (the journal revision this reproduction follows
// omitted the SQL Azure section "due to space constraints", so unlike the
// other services this substrate's latency constants are plausible for the
// era but not calibrated against published curves — the *mechanisms* are
// the documented ones: size-capped database editions, a bounded connection
// pool with throttling, and relational operations that slow under
// concurrency like any shared SQL tier).
//
// The service supports the experiment the paper ran: simple key-addressed
// INSERT/SELECT/UPDATE/DELETE plus range scans, driven by 1-192 concurrent
// clients, contrasted with table storage.
package sqlsvc

import (
	"fmt"
	"sort"
	"time"

	"azureobs/internal/netsim"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/storage/station"
	"azureobs/internal/storage/storerr"
)

// Edition is the SQL Azure database edition, which fixes the size cap.
type Edition int

// Editions of the 2010 service.
const (
	Web      Edition = iota // 1 GB cap
	Business                // 10 GB cap
)

// SizeCap returns the edition's database size limit in bytes.
func (e Edition) SizeCap() int64 {
	if e == Business {
		return 10 * netsim.GB
	}
	return 1 * netsim.GB
}

func (e Edition) String() string {
	if e == Business {
		return "Business"
	}
	return "Web"
}

// Config parameterises the service; zero fields take defaults.
type Config struct {
	// Insert/Select/Update/Delete are the per-operation contention models.
	Insert, Select, Update, Delete station.Config
	// MaxConnections bounds concurrent sessions per database; SQL Azure
	// throttled aggressively compared to the storage services.
	MaxConnections int
	// ScanSecPerRow prices range scans.
	ScanSecPerRow float64
	// ClientBW converts payloads to transfer time.
	ClientBW netsim.Bandwidth

	// Fault injection (default 0; the ModisAzure campaign raises them).
	ConnFailProb   float64
	ServerBusyProb float64
}

// DefaultConfig returns era-plausible parameters (documented as
// uncalibrated; see the package comment).
func DefaultConfig() Config {
	return Config{
		Insert:         station.Config{S0: 12 * time.Millisecond, N0: 48, Gamma: 1.6, CV: 0.3},
		Select:         station.Config{S0: 6 * time.Millisecond, N0: 64, Gamma: 1.4, CV: 0.3},
		Update:         station.Config{S0: 10 * time.Millisecond, N0: 48, Gamma: 1.6, CV: 0.3},
		Delete:         station.Config{S0: 10 * time.Millisecond, N0: 48, Gamma: 1.6, CV: 0.3},
		MaxConnections: 64,
		ScanSecPerRow:  8e-6,
		ClientBW:       13 * netsim.MBps,
	}
}

// Row is one relational row: a primary key plus a payload size (contents are
// not materialised, as elsewhere in the simulation).
type Row struct {
	Key     string
	Size    int
	Version int
}

// Database is one SQL Azure database.
type Database struct {
	Name    string
	Edition Edition

	tables map[string]map[string]*Row
	bytes  int64

	conns int
}

// Size returns the database's current size in bytes.
func (d *Database) Size() int64 { return d.bytes }

// Connections returns the open session count.
func (d *Database) Connections() int { return d.conns }

// Service is the SQL Azure endpoint.
type Service struct {
	cfg Config
	rng *simrand.RNG
	pl  *reqpath.Pipeline

	insert, sel, update, del *station.Station

	dbs map[string]*Database

	throttled uint64
}

// New creates the service.
func New(eng *sim.Engine, rng *simrand.RNG, cfg Config) *Service {
	def := DefaultConfig()
	if cfg.Insert.S0 == 0 {
		cfg.Insert = def.Insert
	}
	if cfg.Select.S0 == 0 {
		cfg.Select = def.Select
	}
	if cfg.Update.S0 == 0 {
		cfg.Update = def.Update
	}
	if cfg.Delete.S0 == 0 {
		cfg.Delete = def.Delete
	}
	if cfg.MaxConnections == 0 {
		cfg.MaxConnections = def.MaxConnections
	}
	if cfg.ScanSecPerRow == 0 {
		cfg.ScanSecPerRow = def.ScanSecPerRow
	}
	if cfg.ClientBW == 0 {
		cfg.ClientBW = def.ClientBW
	}
	r := rng.Fork("sqlsvc")
	return &Service{
		cfg: cfg,
		rng: r,
		pl: reqpath.New(r, reqpath.Config{
			Service: "sql",
			Faults: reqpath.FaultConfig{
				ConnFailProb:   cfg.ConnFailProb,
				ServerBusyProb: cfg.ServerBusyProb,
			},
			UploadBW:   cfg.ClientBW,
			DownloadBW: cfg.ClientBW,
		}),
		insert: station.New(cfg.Insert, r.Fork("insert")),
		sel:    station.New(cfg.Select, r.Fork("select")),
		update: station.New(cfg.Update, r.Fork("update")),
		del:    station.New(cfg.Delete, r.Fork("delete")),
		dbs:    make(map[string]*Database),
	}
}

// Pipeline exposes the service's request pipeline for hook installation.
func (s *Service) Pipeline() *reqpath.Pipeline { return s.pl }

// Throttled returns how many connection attempts were rejected.
func (s *Service) Throttled() uint64 { return s.throttled }

// CreateDatabase provisions a database (idempotent for the same edition).
func (s *Service) CreateDatabase(name string, e Edition) *Database {
	db, ok := s.dbs[name]
	if !ok {
		db = &Database{Name: name, Edition: e, tables: make(map[string]map[string]*Row)}
		s.dbs[name] = db
	}
	return db
}

// CreateTable adds a table to a database (idempotent).
func (db *Database) CreateTable(name string) {
	if _, ok := db.tables[name]; !ok {
		db.tables[name] = make(map[string]*Row)
	}
}

// Conn is one open connection. SQL Azure's tier bounds concurrent
// connections; past the cap, Open is rejected with ServerBusy — the
// throttling behaviour applications had to retry around.
type Conn struct {
	svc *Service
	db  *Database
	id  int

	closed bool
}

// handshake is the TDS connection-establishment latency.
var handshake = simrand.LogNormalMeanCV(0.025, 0.3)

// do runs one request as a flat machine over reqpath.CtxFlat, driven by p:
// admission (conn-fail, server-busy; the SQL pipeline has no request-
// latency stage), then pre, the op's checks before its one wait, which
// names that wait: a visit to st with extra added to the service time, or,
// with st nil, a plain sleep of extra (Open's handshake). Then post (may
// be nil), the semantics decided once the wait ends, and hook delivery. An
// error from admission or pre ends the request without the wait.
func (s *Service) do(p *sim.Proc, op string,
	pre func(c *reqpath.CtxFlat) (st *station.Station, extra time.Duration, err error),
	post func(c *reqpath.CtxFlat) error) error {
	var c reqpath.CtxFlat
	var err error
	finish := func(e error) {
		err = e
		c.Finish(e)
	}
	p.Drive(func(a *sim.Actor) {
		c.Begin(s.pl, op, a)
		if _, _, e := c.AdmitPre(); e != nil {
			finish(e)
			return
		}
		if e := c.AdmitPost(); e != nil {
			finish(e)
			return
		}
		st, extra, e := pre(&c)
		if e != nil {
			finish(e)
			return
		}
		end := func() {
			var e error
			if post != nil {
				e = post(&c)
			}
			finish(e)
		}
		if st == nil {
			c.Sleep(extra, end)
			return
		}
		c.Visit(st, extra, func() {
			c.EndVisit()
			end()
		})
	})
	return err
}

// Open establishes a connection, spending a handshake latency. It fails
// with ServerBusy when the database's connection cap is reached.
func (s *Service) Open(p *sim.Proc, dbName string, id int) (*Conn, error) {
	var db *Database
	err := s.do(p, "sql.Open", func(c *reqpath.CtxFlat) (*station.Station, time.Duration, error) {
		var ok bool
		if db, ok = s.dbs[dbName]; !ok {
			return nil, 0, c.Failf(storerr.CodeNotFound, "database %s", dbName)
		}
		return nil, c.Sample(handshake), nil
	}, func(c *reqpath.CtxFlat) error {
		if db.conns >= s.cfg.MaxConnections {
			s.throttled++
			return c.Failf(storerr.CodeServerBusy, "connection limit %d reached", s.cfg.MaxConnections)
		}
		db.conns++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Conn{svc: s, db: db, id: id}, nil
}

// Close releases the connection. Closing twice is a no-op.
func (c *Conn) Close() {
	if !c.closed {
		c.closed = true
		c.db.conns--
	}
}

// table checks that the connection is open and returns the table it names.
func (c *Conn) table(op, table string) (map[string]*Row, error) {
	if c.closed {
		return nil, storerr.New(storerr.CodeInternal, op, "connection closed")
	}
	tbl, ok := c.db.tables[table]
	if !ok {
		return nil, storerr.Newf(storerr.CodeNotFound, op, "table %s", table)
	}
	return tbl, nil
}

// Insert adds a row; duplicate keys conflict; exceeding the edition cap
// fails with ServerBusy-class pressure (SQL Azure returned error 40544).
func (c *Conn) Insert(p *sim.Proc, table, key string, size int) error {
	const op = "sql.Insert"
	var tbl map[string]*Row
	return c.svc.do(p, op, func(rc *reqpath.CtxFlat) (st *station.Station, extra time.Duration, err error) {
		tbl, err = c.table(op, table)
		return c.svc.insert, rc.UploadCost(size), err
	}, func(rc *reqpath.CtxFlat) error {
		if _, exists := tbl[key]; exists {
			return rc.Failf(storerr.CodeConflict, "duplicate key %s", key)
		}
		if c.db.bytes+int64(size) > c.db.Edition.SizeCap() {
			return rc.Failf(storerr.CodeServerBusy,
				"database full: %s edition caps at %d bytes", c.db.Edition, c.db.Edition.SizeCap())
		}
		tbl[key] = &Row{Key: key, Size: size, Version: 1}
		c.db.bytes += int64(size)
		return nil
	})
}

// Select fetches one row by primary key.
func (c *Conn) Select(p *sim.Proc, table, key string) (*Row, error) {
	const op = "sql.Select"
	var row *Row
	err := c.svc.do(p, op, func(rc *reqpath.CtxFlat) (*station.Station, time.Duration, error) {
		tbl, err := c.table(op, table)
		if err != nil {
			return nil, 0, err
		}
		respSize := 0
		if row = tbl[key]; row != nil {
			respSize = row.Size
		}
		return c.svc.sel, rc.DownloadCost(respSize), nil
	}, func(rc *reqpath.CtxFlat) error {
		if row == nil {
			return rc.Failf(storerr.CodeNotFound, "key %s", key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return row, nil
}

// SelectRange scans keys in [lo, hi) in key order, pricing the scan by row
// count — the indexed range query a relational tier offers that table
// storage (keys-only) cannot.
func (c *Conn) SelectRange(p *sim.Proc, table, lo, hi string) ([]*Row, error) {
	const op = "sql.SelectRange"
	var out []*Row
	err := c.svc.do(p, op, func(rc *reqpath.CtxFlat) (*station.Station, time.Duration, error) {
		tbl, err := c.table(op, table)
		if err != nil {
			return nil, 0, err
		}
		var bytes int
		for k, r := range tbl {
			if k >= lo && k < hi {
				out = append(out, r)
				bytes += r.Size
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		scan := time.Duration(float64(len(tbl)) * c.svc.cfg.ScanSecPerRow * float64(time.Second))
		return c.svc.sel, scan + rc.DownloadCost(bytes), nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Update rewrites a row's payload.
func (c *Conn) Update(p *sim.Proc, table, key string, size int) error {
	const op = "sql.Update"
	var tbl map[string]*Row
	return c.svc.do(p, op, func(rc *reqpath.CtxFlat) (st *station.Station, extra time.Duration, err error) {
		tbl, err = c.table(op, table)
		return c.svc.update, rc.UploadCost(size), err
	}, func(rc *reqpath.CtxFlat) error {
		row, ok := tbl[key]
		if !ok {
			return rc.Failf(storerr.CodeNotFound, "key %s", key)
		}
		c.db.bytes += int64(size) - int64(row.Size)
		if c.db.bytes > c.db.Edition.SizeCap() {
			c.db.bytes -= int64(size) - int64(row.Size)
			return rc.Failf(storerr.CodeServerBusy, "database full")
		}
		row.Size = size
		row.Version++
		return nil
	})
}

// Delete removes a row.
func (c *Conn) Delete(p *sim.Proc, table, key string) error {
	const op = "sql.Delete"
	var tbl map[string]*Row
	return c.svc.do(p, op, func(*reqpath.CtxFlat) (st *station.Station, extra time.Duration, err error) {
		tbl, err = c.table(op, table)
		return c.svc.del, 0, err
	}, func(rc *reqpath.CtxFlat) error {
		row, ok := tbl[key]
		if !ok {
			return rc.Failf(storerr.CodeNotFound, "key %s", key)
		}
		delete(tbl, key)
		c.db.bytes -= int64(row.Size)
		return nil
	})
}

// Seed inserts a row instantly (setup helper).
func (s *Service) Seed(dbName, table, key string, size int) {
	db := s.dbs[dbName]
	if db == nil {
		panic(fmt.Sprintf("sqlsvc: seed into missing database %s", dbName))
	}
	db.CreateTable(table)
	if _, exists := db.tables[table][key]; !exists {
		db.tables[table][key] = &Row{Key: key, Size: size, Version: 1}
		db.bytes += int64(size)
	}
}
