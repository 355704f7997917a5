package azure

import (
	"time"

	"azureobs/internal/fabric"
	"azureobs/internal/metrics"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/blobsvc"
	"azureobs/internal/storage/queuesvc"
	"azureobs/internal/storage/storerr"
	"azureobs/internal/storage/tablesvc"
)

// Client is a per-VM storage client. All operations block the calling
// process for the simulated service latency and return typed storage errors
// (package storerr) on failure.
type Client struct {
	cloud *Cloud
	vm    *fabric.VM
	id    int
	blob  *blobsvc.Session // lazily opened by blobSession

	rng *simrand.RNG

	// stats tallies every operation issued through this client — the
	// client-side error accounting the ModisAzure logs were built from.
	stats *metrics.OpStats

	// onOp, when set, observes every completed storage operation — the
	// client-side instrumentation hook applications use to build the
	// Section 6.3 monitoring infrastructure.
	onOp func(op string, d time.Duration, err error)

	// flat holds the client's flat-mode plumbing (cached completion
	// wrappers), created on first flat call.
	flat *clientFlat
}

// blobSession opens the client's blob session on first use.
func (cl *Client) blobSession() *blobsvc.Session {
	if cl.blob == nil {
		cl.blob = cl.cloud.Blob.NewSession(cl.id)
	}
	return cl.blob
}

// SetRecorder installs an observer called after every storage operation
// with its name, simulated latency and outcome. Pass nil to remove it.
func (cl *Client) SetRecorder(fn func(op string, d time.Duration, err error)) { cl.onOp = fn }

// Ops returns the client's per-operation latency/error tallies.
func (cl *Client) Ops() *metrics.OpStats { return cl.stats }

// record is the client-side accounting every operation ends with, blocking
// or flat: the op's latency since start and its outcome go to the client's
// tallies and recorder hook, so the tallies cover the full API surface.
func (cl *Client) record(op string, start time.Duration, err error) {
	d := cl.cloud.Engine.Now() - start
	cl.stats.Record(op, d, string(storerr.CodeOf(err)))
	if cl.onOp != nil {
		cl.onOp(op, d, err)
	}
}

// VM returns the instance the client runs on.
func (cl *Client) VM() *fabric.VM { return cl.vm }

// Cloud returns the client's cloud.
func (cl *Client) Cloud() *Cloud { return cl.cloud }

// --- Blob API ---

// CreateContainer creates a blob container if it does not exist.
func (cl *Client) CreateContainer(name string) { cl.cloud.Blob.CreateContainer(name) }

// GetBlob downloads a blob in full and returns its size.
func (cl *Client) GetBlob(p *sim.Proc, container, name string) (int64, error) {
	start := p.Now()
	n, err := cl.blobSession().Get(p, container, name)
	cl.record("blob.Get", start, err)
	return n, err
}

// PutBlob uploads a blob. With overwrite false an existing name fails with
// CodeBlobExists.
func (cl *Client) PutBlob(p *sim.Proc, container, name string, size int64, overwrite bool) error {
	start := p.Now()
	err := cl.blobSession().Put(p, container, name, size, overwrite)
	cl.record("blob.Put", start, err)
	return err
}

// BlobExists checks existence.
func (cl *Client) BlobExists(p *sim.Proc, container, name string) (bool, error) {
	start := p.Now()
	ok, err := cl.blobSession().Exists(p, container, name)
	cl.record("blob.Exists", start, err)
	return ok, err
}

// DeleteBlob removes a blob.
func (cl *Client) DeleteBlob(p *sim.Proc, container, name string) error {
	start := p.Now()
	err := cl.blobSession().Delete(p, container, name)
	cl.record("blob.Delete", start, err)
	return err
}

// --- Table API ---

// CreateTable creates a table if it does not exist.
func (cl *Client) CreateTable(name string) { cl.cloud.Table.CreateTable(name) }

// InsertEntity inserts a new entity.
func (cl *Client) InsertEntity(p *sim.Proc, table string, e *tablesvc.Entity) error {
	start := p.Now()
	err := cl.cloud.Table.Insert(p, table, e)
	cl.record("table.Insert", start, err)
	return err
}

// GetEntity queries one entity by partition and row key (the indexed path).
func (cl *Client) GetEntity(p *sim.Proc, table, pk, rk string) (*tablesvc.Entity, error) {
	start := p.Now()
	e, err := cl.cloud.Table.Get(p, table, pk, rk)
	cl.record("table.Query", start, err)
	return e, err
}

// UpdateEntity replaces an entity unconditionally.
func (cl *Client) UpdateEntity(p *sim.Proc, table string, e *tablesvc.Entity) error {
	start := p.Now()
	err := cl.cloud.Table.Update(p, table, e)
	cl.record("table.Update", start, err)
	return err
}

// DeleteEntity removes an entity.
func (cl *Client) DeleteEntity(p *sim.Proc, table, pk, rk string) error {
	start := p.Now()
	err := cl.cloud.Table.Delete(p, table, pk, rk)
	cl.record("table.Delete", start, err)
	return err
}

// QueryEntities scans a partition with a property filter (the non-indexed
// path the paper warns about).
func (cl *Client) QueryEntities(p *sim.Proc, table, pk string, pred func(*tablesvc.Entity) bool) ([]*tablesvc.Entity, error) {
	start := p.Now()
	out, err := cl.cloud.Table.QueryFilter(p, table, pk, pred)
	cl.record("table.QueryFilter", start, err)
	return out, err
}

// --- Queue API ---

// CreateQueue creates (or fetches) a queue.
func (cl *Client) CreateQueue(name string) *queuesvc.Queue {
	return cl.cloud.Queue.CreateQueue(name)
}

// AddMessage enqueues a message body padded to size bytes.
func (cl *Client) AddMessage(p *sim.Proc, q *queuesvc.Queue, body string, size int) (uint64, error) {
	start := p.Now()
	id, err := cl.cloud.Queue.Add(p, q, body, size)
	cl.record("queue.Add", start, err)
	return id, err
}

// Peek returns the first visible message without state change. An empty
// queue is CodeNotFound — the same axis every other miss on the client API
// reports — so callers branch with storerr.IsCode instead of a second
// boolean channel.
func (cl *Client) Peek(p *sim.Proc, q *queuesvc.Queue) (*queuesvc.Message, error) {
	start := p.Now()
	m, ok, err := cl.cloud.Queue.Peek(p, q)
	if err == nil && !ok {
		err = storerr.New(storerr.CodeNotFound, "queue.Peek", "no visible messages")
	}
	cl.record("queue.Peek", start, err)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Receive pops the first visible message, hiding it for the visibility
// window (zero means the service default), and returns it paired with the
// pop receipt that authorises its deletion. An empty queue is CodeNotFound,
// as Peek.
func (cl *Client) Receive(p *sim.Proc, q *queuesvc.Queue, visibility time.Duration) (*queuesvc.Received, error) {
	start := p.Now()
	m, rcpt, ok, err := cl.cloud.Queue.Receive(p, q, visibility)
	if err == nil && !ok {
		err = storerr.New(storerr.CodeNotFound, "queue.Receive", "no visible messages")
	}
	cl.record("queue.Receive", start, err)
	if err != nil {
		return nil, err
	}
	return &queuesvc.Received{Msg: m, Receipt: rcpt}, nil
}

// PeekMessage returns the first visible message without state change, with
// an empty queue reported as ok=false rather than an error.
//
// Deprecated: use Peek, which folds the empty-queue case into the client's
// single storerr error axis (CodeNotFound). PeekMessage remains for callers
// calibrated against its ok-channel accounting (an empty peek records a
// success in Ops).
func (cl *Client) PeekMessage(p *sim.Proc, q *queuesvc.Queue) (*queuesvc.Message, bool, error) {
	start := p.Now()
	m, ok, err := cl.cloud.Queue.Peek(p, q)
	cl.record("queue.Peek", start, err)
	return m, ok, err
}

// ReceiveMessage pops the first visible message, hiding it for the
// visibility window.
//
// Deprecated: use Receive, which returns a *queuesvc.Received and reports
// an empty queue as CodeNotFound instead of a separate ok channel.
func (cl *Client) ReceiveMessage(p *sim.Proc, q *queuesvc.Queue, visibility time.Duration) (*queuesvc.Message, queuesvc.Receipt, bool, error) {
	start := p.Now()
	m, rcpt, ok, err := cl.cloud.Queue.Receive(p, q, visibility)
	cl.record("queue.Receive", start, err)
	return m, rcpt, ok, err
}

// DeleteMessage removes a received message by receipt.
func (cl *Client) DeleteMessage(p *sim.Proc, q *queuesvc.Queue, r queuesvc.Receipt) error {
	start := p.Now()
	err := cl.cloud.Queue.Delete(p, q, r)
	cl.record("queue.Delete", start, err)
	return err
}

// --- Inter-VM TCP (internal endpoints, Section 4.2) ---

// TCPRoundtrip measures one 1-byte roundtrip to a peer VM over an internal
// TCP endpoint.
func (cl *Client) TCPRoundtrip(p *sim.Proc, peer *fabric.VM) time.Duration {
	d := cl.cloud.DC.TCPLatency(cl.rng)
	p.Sleep(d)
	return d
}

// TCPSend streams size bytes to a peer VM over an internal endpoint and
// returns the elapsed time. The achievable rate depends on both endpoints'
// placement quality (Fig. 5). A send to the client's own VM crosses its NIC
// once, not once per endpoint.
func (cl *Client) TCPSend(p *sim.Proc, peer *fabric.VM, size int64) time.Duration {
	link := cl.cloud.DC.PairBandwidthLink(cl.vm, peer, cl.rng)
	if peer == cl.vm {
		return cl.cloud.DC.Net().Transfer(p, size, cl.vm.NIC(), link)
	}
	return cl.cloud.DC.Net().Transfer(p, size, cl.vm.NIC(), link, peer.NIC())
}
