// Package tablesvc simulates the Windows Azure table storage service as
// measured in Section 3.2 of the paper: schemaless entities addressed by
// (PartitionKey, RowKey), four operations (Insert, Query, Update, Delete)
// with distinct contention behaviour, a partition ingest capacity whose
// overload produces server-side timeout exceptions at large entity sizes and
// high concurrency, and slow property-filter scans that time out under
// concurrency (Section 6.1).
//
// Calibration (per-client ops/s as a function of concurrency, Fig. 2):
//   - Insert/Query decay gently and do not saturate the server through 192
//     clients (γ < 1, knee beyond the tested range).
//   - Update on a single hot entity peaks in aggregate at 8 clients (γ = 2,
//     n0 = 8): unconditional updates still serialise on the entity's row.
//   - Delete peaks in aggregate at 128 clients (γ = 2, n0 = 128).
package tablesvc

import (
	"time"

	"azureobs/internal/netsim"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/storage/station"
)

// PropKind tags an entity property type.
type PropKind int

// Property kinds (the paper's test entities use {int, int, String, String}).
const (
	PropInt PropKind = iota
	PropString
)

// Prop is one schemaless entity property.
type Prop struct {
	Kind PropKind
	Int  int64
	Str  string
}

// IntProp builds an integer property.
func IntProp(v int64) Prop { return Prop{Kind: PropInt, Int: v} }

// StrProp builds a string property.
func StrProp(v string) Prop { return Prop{Kind: PropString, Str: v} }

// size returns the property's wire size in bytes.
func (p Prop) size() int {
	if p.Kind == PropInt {
		return 8
	}
	return len(p.Str)
}

// Entity is one table row. PadBytes counts filler payload that contributes
// to the wire size without being materialised — the paper's test entities
// carry a sizing string of up to 64 kB whose content is irrelevant.
//
// The service takes an entity's size once, when the row is written (Insert,
// Update, Backdoor), and prices every later read or delete of the row from
// that size. A stored entity must therefore not be mutated: build a new one
// and Update instead.
type Entity struct {
	PartitionKey string
	RowKey       string
	Props        map[string]Prop
	PadBytes     int
}

// Size returns the entity's payload size in bytes. It walks Props; the
// service calls it once per write (see Entity).
func (e *Entity) Size() int {
	n := len(e.PartitionKey) + len(e.RowKey) + e.PadBytes
	for k, p := range e.Props {
		n += len(k) + p.size()
	}
	return n
}

// PaddedEntity builds a paper-style test entity {int, int, String, String}
// padded to the requested total size — the protocol of Section 3.2. The
// fourth (sizing) property is tracked by size only.
func PaddedEntity(pk, rk string, totalSize int) *Entity {
	e := &Entity{
		PartitionKey: pk,
		RowKey:       rk,
		Props: map[string]Prop{
			"A": IntProp(1),
			"B": IntProp(2),
			"C": StrProp("fixed"),
		},
	}
	if pad := totalSize - e.Size(); pad > 0 {
		e.PadBytes = pad
	}
	return e
}

// Config parameterises the service; zero fields take calibrated defaults.
type Config struct {
	Insert, Query, Update, Delete station.Config

	// ServerTimeout is the server-side request deadline; overloaded
	// requests burn this long before failing.
	ServerTimeout time.Duration

	// IngestCapacity is the partition's sustainable write bandwidth. When
	// the offered insert/delete load exceeds it, per-op timeout probability
	// rises as OverloadK·(1−1/ρ) — which reproduces the 64 kB insert
	// survivor counts (94/128 and 89/192 clients finishing 500 ops).
	IngestCapacity netsim.Bandwidth
	OverloadK      float64

	// ScanSecPerEntity and ScanConcurrencyN0 shape property-filter queries:
	// scan latency = entities·ScanSecPerEntity·(1 + n/N0). With ~220k
	// entities and 32 concurrent scanners this exceeds the server timeout
	// more often than not (Section 6.1).
	ScanSecPerEntity  float64
	ScanConcurrencyN0 float64
	ScanCV            float64

	// ClientWriteBW/ClientReadBW convert payload sizes into transfer time
	// added to each op.
	ClientWriteBW netsim.Bandwidth
	ClientReadBW  netsim.Bandwidth

	// Fault injection (default 0; the ModisAzure campaign raises them).
	ConnFailProb   float64
	ServerBusyProb float64
}

// DefaultConfig returns the Fig. 2 calibration.
func DefaultConfig() Config {
	return Config{
		Insert: station.Config{S0: 36 * time.Millisecond, N0: 136, Gamma: 0.9, CV: 0.25},
		Query:  station.Config{S0: 15 * time.Millisecond, N0: 150, Gamma: 0.9, CV: 0.25},
		Update: station.Config{S0: 8 * time.Millisecond, N0: 8, Gamma: 2, CV: 0.3},
		Delete: station.Config{S0: 25 * time.Millisecond, N0: 128, Gamma: 2, CV: 0.3},

		ServerTimeout: 30 * time.Second,

		IngestCapacity: 100 * netsim.MBps,
		OverloadK:      0.0045,

		ScanSecPerEntity:  32e-6,
		ScanConcurrencyN0: 8,
		ScanCV:            0.35,

		ClientWriteBW: 6.5 * netsim.MBps,
		ClientReadBW:  13 * netsim.MBps,
	}
}

// Service is one table storage account endpoint.
type Service struct {
	cfg Config
	rng *simrand.RNG
	pl  *reqpath.Pipeline

	insert, query, update, delete *station.Station

	tables map[string]map[string]partition // table → pk → rk

	scans    int // concurrent property-filter scans
	timeouts uint64

	// calls is the free list of blocking-call states (see call).
	calls []*call
}

// New creates a table service.
func New(eng *sim.Engine, rng *simrand.RNG, cfg Config) *Service {
	def := DefaultConfig()
	if cfg.Insert.S0 == 0 {
		cfg.Insert = def.Insert
	}
	if cfg.Query.S0 == 0 {
		cfg.Query = def.Query
	}
	if cfg.Update.S0 == 0 {
		cfg.Update = def.Update
	}
	if cfg.Delete.S0 == 0 {
		cfg.Delete = def.Delete
	}
	if cfg.ServerTimeout == 0 {
		cfg.ServerTimeout = def.ServerTimeout
	}
	if cfg.IngestCapacity == 0 {
		cfg.IngestCapacity = def.IngestCapacity
	}
	if cfg.OverloadK == 0 {
		cfg.OverloadK = def.OverloadK
	}
	if cfg.ScanSecPerEntity == 0 {
		cfg.ScanSecPerEntity = def.ScanSecPerEntity
	}
	if cfg.ScanConcurrencyN0 == 0 {
		cfg.ScanConcurrencyN0 = def.ScanConcurrencyN0
	}
	if cfg.ScanCV == 0 {
		cfg.ScanCV = def.ScanCV
	}
	if cfg.ClientWriteBW == 0 {
		cfg.ClientWriteBW = def.ClientWriteBW
	}
	if cfg.ClientReadBW == 0 {
		cfg.ClientReadBW = def.ClientReadBW
	}
	r := rng.Fork("tablesvc")
	return &Service{
		cfg: cfg,
		rng: r,
		pl: reqpath.New(r, reqpath.Config{
			Service: "table",
			Faults: reqpath.FaultConfig{
				ConnFailProb:   cfg.ConnFailProb,
				ServerBusyProb: cfg.ServerBusyProb,
			},
			UploadBW:      cfg.ClientWriteBW,
			DownloadBW:    cfg.ClientReadBW,
			ServerTimeout: cfg.ServerTimeout,
		}),
		insert: station.New(cfg.Insert, r.Fork("insert")),
		query:  station.New(cfg.Query, r.Fork("query")),
		update: station.New(cfg.Update, r.Fork("update")),
		delete: station.New(cfg.Delete, r.Fork("delete")),
		tables: make(map[string]map[string]partition),
	}
}

// Pipeline exposes the service's request pipeline for hook installation.
func (s *Service) Pipeline() *reqpath.Pipeline { return s.pl }

// Timeouts returns the count of server-side timeout responses issued.
func (s *Service) Timeouts() uint64 { return s.timeouts }

// CreateTable makes a table (idempotent).
func (s *Service) CreateTable(name string) {
	if _, ok := s.tables[name]; !ok {
		s.tables[name] = make(map[string]partition)
	}
}

// Backdoor inserts an entity instantly, bypassing the timed request path.
// It is a setup helper for experiments that need a pre-populated partition
// (e.g. the ~220k-entity partition of Section 3.2).
func (s *Service) Backdoor(table string, e *Entity) {
	s.CreateTable(table)
	addPartition(s.tables[table], e.PartitionKey)[e.RowKey] = row{ent: e, size: e.Size()}
}

// PartitionSize returns the entity count of one partition.
func (s *Service) PartitionSize(table, pk string) int {
	return len(s.tables[table][pk])
}

// row is one stored entity with its size, taken when the row was written.
type row struct {
	ent  *Entity
	size int
}

// partition maps row keys to the rows of one partition key.
type partition map[string]row

// lookup returns the table and the (table, pk) partition. t is nil when the
// table does not exist; p is nil when the partition holds no row: a
// partition exists only while it has rows. Reads look partitions up and
// never create one, so a request for an absent key (an untrusted wire GET
// among them) leaves nothing behind, and the delete of a partition's last
// row drops the partition.
func (s *Service) lookup(table, pk string) (t map[string]partition, p partition) {
	t = s.tables[table]
	return t, t[pk]
}

// addPartition returns t's partition pk, creating it: only writes that add
// a row (Insert, Backdoor) call it, as they add it.
func addPartition(t map[string]partition, pk string) partition {
	p, ok := t[pk]
	if !ok {
		p = make(partition)
		t[pk] = p
	}
	return p
}

// call is one blocking request: pooled request states for every op family
// plus the result their completions deliver.
type call struct {
	svc   *Service
	get   GetFlat
	write WriteFlat
	query QueryFlat
	ent   *Entity
	out   []*Entity
	err   error
}

// call takes a blocking-call state from the service's free list.
func (s *Service) call() *call {
	if n := len(s.calls); n > 0 {
		c := s.calls[n-1]
		s.calls = s.calls[:n-1]
		return c
	}
	c := &call{svc: s}
	c.get.Init(s, c.gotEntity)
	c.write.Init(s, c.wrote)
	c.query.Init(s, c.scanned)
	return c
}

func (c *call) gotEntity(e *Entity, err error)   { c.ent, c.err = e, err }
func (c *call) wrote(err error)                  { c.err = err }
func (c *call) scanned(out []*Entity, err error) { c.out, c.err = out, err }

// release returns the call to the free list.
func (c *call) release() {
	c.ent, c.out, c.err = nil, nil, nil
	c.svc.calls = append(c.svc.calls, c)
}

// Insert adds a new entity; inserting an existing (pk, rk) is a conflict.
func (s *Service) Insert(p *sim.Proc, table string, e *Entity) error {
	c := s.call()
	p.Drive(func(a *sim.Actor) { c.write.BeginInsert(a, table, e) })
	err := c.err
	c.release()
	return err
}

// Get retrieves one entity by partition and row key — the fast, indexed
// query path of the paper's Query experiment.
func (s *Service) Get(p *sim.Proc, table, pk, rk string) (*Entity, error) {
	c := s.call()
	p.Drive(func(a *sim.Actor) { c.get.Begin(a, table, pk, rk) })
	ent, err := c.ent, c.err
	c.release()
	return ent, err
}

// Update replaces an entity's properties unconditionally (no ETag check) —
// the mode the paper tested so concurrent clients can hit one entity.
func (s *Service) Update(p *sim.Proc, table string, e *Entity) error {
	c := s.call()
	p.Drive(func(a *sim.Actor) { c.write.BeginUpdate(a, table, e) })
	err := c.err
	c.release()
	return err
}

// Delete removes one entity.
func (s *Service) Delete(p *sim.Proc, table, pk, rk string) error {
	c := s.call()
	p.Drive(func(a *sim.Actor) { c.write.BeginDelete(a, table, pk, rk) })
	err := c.err
	c.release()
	return err
}

// QueryFilter scans a partition evaluating pred on every entity (see
// QueryFlat) and returns the matches in ascending RowKey order.
func (s *Service) QueryFilter(p *sim.Proc, table, pk string, pred func(*Entity) bool) ([]*Entity, error) {
	c := s.call()
	p.Drive(func(a *sim.Actor) { c.query.Begin(a, table, pk, pred) })
	out, err := c.out, c.err
	c.release()
	return out, err
}
