// Package blobsvc simulates the Windows Azure blob storage service as
// measured in Section 3.1 of the paper: a triple-replicated object store
// whose aggregate download bandwidth saturates near 400 MB/s against a
// single blob (three replicas of a ~130 MB/s server class), whose upload
// path tops out near 125 MB/s (one ingest stream plus synchronous
// replication write amplification), and whose per-client throughput is
// bounded by a ~13 MB/s (100 Mbit-class) per-connection service cap for
// small instances.
//
// The service-side aggregate curves are expressed as netsim capacity
// profiles calibrated to the published Fig. 1 data points; the per-client
// curve then emerges from max-min fair sharing between the client access
// link and the service trunk.
package blobsvc

import (
	"time"

	"azureobs/internal/netsim"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/reqpath"
)

// Config parameterises the service. Zero fields take calibrated defaults.
type Config struct {
	// DownloadProfile is the aggregate egress capacity vs concurrent
	// downloads (Fig. 1 calibration).
	DownloadProfile []netsim.ProfilePoint
	// UploadProfile is the aggregate ingest capacity vs concurrent uploads.
	UploadProfile []netsim.ProfilePoint
	// ClientDownBW is the per-connection download cap (the ~100 Mbit/s
	// small-instance limitation of Section 6.1).
	ClientDownBW netsim.Bandwidth
	// ClientUpBW is the per-connection upload cap (~half of download;
	// Fig. 1 upload sits at about half the download bandwidth).
	ClientUpBW netsim.Bandwidth
	// RequestLatency is the per-request overhead before bytes flow.
	RequestLatency simrand.Dist
	// ReplicationFactor is informational (the profiles already embody it).
	ReplicationFactor int

	// Fault injection (all default 0; the ModisAzure campaign raises them).
	CorruptReadProb float64 // client-side integrity failure after download
	ReadFailProb    float64 // blob read fails server-side
	ConnFailProb    float64 // transport failure before the request lands
	ServerBusyProb  float64 // throttle response
}

// DefaultConfig returns the Fig. 1 calibration.
func DefaultConfig() Config {
	return Config{
		// Aggregate download MB/s at n concurrent clients. Paper anchors:
		// NIC-bound through 8 clients (≤13 MB/s each), ~half per-client at
		// 32 (≈6.5 → 208 aggregate), peak 393.4 at 128, slightly lower at
		// 192 ("maximum ... achieved by using 128 clients").
		DownloadProfile: []netsim.ProfilePoint{
			{N: 1, Capacity: 50 * netsim.MBps},
			{N: 8, Capacity: 110 * netsim.MBps},
			{N: 16, Capacity: 152 * netsim.MBps},
			{N: 32, Capacity: 208 * netsim.MBps},
			{N: 64, Capacity: 320 * netsim.MBps},
			{N: 128, Capacity: 393 * netsim.MBps},
			{N: 192, Capacity: 388 * netsim.MBps},
		},
		// Aggregate upload MB/s. Paper anchors: single client ~6.5 (half of
		// download), 1.25 per client at 64 (=80 aggregate), 0.65 at 192
		// (=124.8 aggregate, the observed 124.25 MB/s maximum).
		UploadProfile: []netsim.ProfilePoint{
			{N: 1, Capacity: 30 * netsim.MBps},
			{N: 8, Capacity: 52 * netsim.MBps},
			{N: 16, Capacity: 80 * netsim.MBps},
			{N: 64, Capacity: 80 * netsim.MBps},
			{N: 128, Capacity: 115 * netsim.MBps},
			{N: 192, Capacity: 125 * netsim.MBps},
		},
		ClientDownBW:      13 * netsim.MBps,
		ClientUpBW:        6.5 * netsim.MBps,
		RequestLatency:    simrand.LogNormalMeanCV(0.015, 0.4),
		ReplicationFactor: 3,
	}
}

// Blob is stored metadata; payloads are sizes, not bytes. Each blob carries
// its own egress link with the calibrated concurrency profile: the paper's
// ~400 MB/s ceiling is per *blob* (three replicas of a ~130 MB/s server
// class serving one object), which is why its Section 6.1 recommends
// replicating hot blobs under several names to expand server-side
// bandwidth.
type Blob struct {
	Container string
	Name      string
	Size      int64
	Created   time.Duration

	egress *netsim.Link
}

// Service is one blob storage account endpoint.
type Service struct {
	cfg Config
	eng *sim.Engine
	net *netsim.Fabric
	rng *simrand.RNG
	pl  *reqpath.Pipeline

	downloadProfile func(int) netsim.Bandwidth
	ingress         *netsim.Link

	containers map[string]map[string]*Blob

	downloads, uploads uint64

	// calls is the free list of blocking-call states (see call).
	calls []*call
}

// New creates a blob service on the network fabric.
func New(eng *sim.Engine, net *netsim.Fabric, rng *simrand.RNG, cfg Config) *Service {
	def := DefaultConfig()
	if cfg.DownloadProfile == nil {
		cfg.DownloadProfile = def.DownloadProfile
	}
	if cfg.UploadProfile == nil {
		cfg.UploadProfile = def.UploadProfile
	}
	if cfg.ClientDownBW == 0 {
		cfg.ClientDownBW = def.ClientDownBW
	}
	if cfg.ClientUpBW == 0 {
		cfg.ClientUpBW = def.ClientUpBW
	}
	if cfg.RequestLatency == nil {
		cfg.RequestLatency = def.RequestLatency
	}
	if cfg.ReplicationFactor == 0 {
		cfg.ReplicationFactor = def.ReplicationFactor
	}
	s := &Service{
		cfg:        cfg,
		eng:        eng,
		net:        net,
		rng:        rng.Fork("blobsvc"),
		containers: make(map[string]map[string]*Blob),
	}
	s.pl = reqpath.New(s.rng, reqpath.Config{
		Service: "blob",
		Faults: reqpath.FaultConfig{
			ConnFailProb:    cfg.ConnFailProb,
			ServerBusyProb:  cfg.ServerBusyProb,
			ReadFailProb:    cfg.ReadFailProb,
			CorruptReadProb: cfg.CorruptReadProb,
		},
		Latency: cfg.RequestLatency,
		Net:     net,
	})
	s.downloadProfile = netsim.CapacityProfile(cfg.DownloadProfile...)
	s.ingress = net.NewLink("blob-ingress", 125*netsim.MBps)
	s.ingress.SetCapacityFn(netsim.CapacityProfile(cfg.UploadProfile...))
	return s
}

// newBlob creates blob metadata with its private egress link.
func (s *Service) newBlob(container, name string, size int64, created time.Duration) *Blob {
	b := &Blob{Container: container, Name: name, Size: size, Created: created}
	b.egress = s.net.NewLink("blob-egress/"+container+"/"+name, 400*netsim.MBps)
	b.egress.SetCapacityFn(s.downloadProfile)
	return b
}

// Seed stores a blob instantly, bypassing the timed upload path — a setup
// helper for experiments that stage data before measuring.
func (s *Service) Seed(container, name string, size int64) *Blob {
	s.CreateContainer(container)
	b := s.newBlob(container, name, size, s.eng.Now())
	s.containers[container][name] = b
	return b
}

// Apply makes the stored copy of a blob match a replicated payload: a
// no-op when the blob exists at the given size, otherwise an untimed
// seed/reseed. This is the geo-replication apply path (internal/geo): the
// long-haul transfer is timed on the trunk link before Apply runs, so the
// local store mutation itself is instantaneous — matching how the
// intra-datacenter replicas behind the capacity profiles are modeled.
func (s *Service) Apply(container, name string, size int64) *Blob {
	if b, ok := s.Lookup(container, name); ok && b.Size == size {
		return b
	}
	return s.Seed(container, name, size)
}

// Pipeline exposes the service's request pipeline so callers (the azure SDK)
// can install per-request hooks; sessions share its hook set.
func (s *Service) Pipeline() *reqpath.Pipeline { return s.pl }

// Downloads returns the number of completed downloads.
func (s *Service) Downloads() uint64 { return s.downloads }

// Uploads returns the number of completed uploads.
func (s *Service) Uploads() uint64 { return s.uploads }

// CreateContainer makes a container; creating an existing container is a
// no-op (Azure semantics for CreateIfNotExist).
func (s *Service) CreateContainer(name string) {
	if _, ok := s.containers[name]; !ok {
		s.containers[name] = make(map[string]*Blob)
	}
}

// Lookup returns blob metadata without a timed request (test/verification
// helper).
func (s *Service) Lookup(container, name string) (*Blob, bool) {
	b, ok := s.containers[container][name]
	return b, ok
}

// BlobCount returns the number of blobs in a container.
func (s *Service) BlobCount(container string) int { return len(s.containers[container]) }

// Session is one client connection context. Each concurrent client must use
// its own session: the session's private access links are what impose the
// per-client bandwidth caps, and its private pipeline carries independent
// fault/latency streams.
type Session struct {
	svc  *Service
	pl   *reqpath.Pipeline
	down *netsim.Link
	up   *netsim.Link

	// flat is the session's flat request state, created on the first
	// *Flat call and reused for every later flat request on this session.
	flat *reqFlat
}

// NewSession opens a client session. The id decorrelates the session's
// random streams.
func (s *Service) NewSession(id int) *Session {
	return &Session{
		svc:  s,
		pl:   s.pl.ForkN("session", id),
		down: s.net.NewLink("blob-client-down", s.cfg.ClientDownBW),
		up:   s.net.NewLink("blob-client-up", s.cfg.ClientUpBW),
	}
}

// Get downloads a blob in full, blocking for the transfer, and returns its
// size.
func (sess *Session) Get(p *sim.Proc, container, name string) (size int64, err error) {
	c := sess.svc.call()
	p.Drive(func(a *sim.Actor) { c.r.begin(a, sess, "blob.Get", bGet, container, name, 0, 0, false) })
	return c.release()
}

// GetRange downloads length bytes starting at offset, returning the bytes
// actually transferred (truncated at the blob end). Range reads against the
// 2009 API are how clients parallelise a large download across connections.
func (sess *Session) GetRange(p *sim.Proc, container, name string, offset, length int64) (int64, error) {
	c := sess.svc.call()
	p.Drive(func(a *sim.Actor) {
		c.r.begin(a, sess, "blob.GetRange", bGetRange, container, name, offset, length, false)
	})
	return c.release()
}

// Put uploads a new blob of the given size. With overwrite false, an
// existing blob yields CodeBlobExists — the check happens before bytes move,
// which is how ModisAzure used it to elide duplicate work (Table 2's "Blob
// already exists" entries).
func (sess *Session) Put(p *sim.Proc, container, name string, size int64, overwrite bool) error {
	c := sess.svc.call()
	p.Drive(func(a *sim.Actor) { c.r.begin(a, sess, "blob.Put", bPut, container, name, 0, size, overwrite) })
	_, err := c.release()
	return err
}

// Exists checks blob existence with a lightweight request.
func (sess *Session) Exists(p *sim.Proc, container, name string) (ok bool, err error) {
	c := sess.svc.call()
	p.Drive(func(a *sim.Actor) { c.r.begin(a, sess, "blob.Exists", bExists, container, name, 0, 0, false) })
	n, err := c.release()
	return n != 0, err
}

// Delete removes a blob.
func (sess *Session) Delete(p *sim.Proc, container, name string) error {
	c := sess.svc.call()
	p.Drive(func(a *sim.Actor) { c.r.begin(a, sess, "blob.Delete", bDelete, container, name, 0, 0, false) })
	_, err := c.release()
	return err
}
