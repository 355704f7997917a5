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

// observe wraps an operation with latency and error accounting. Every
// client API method goes through it, so the tallies cover the full surface.
func observe[T any](cl *Client, p *sim.Proc, op string, fn func() (T, error)) (T, error) {
	start := p.Now()
	v, err := fn()
	d := p.Now() - start
	cl.stats.Record(op, d, string(storerr.CodeOf(err)))
	if cl.onOp != nil {
		cl.onOp(op, d, err)
	}
	return v, err
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
	return observe(cl, p, "blob.Get", func() (int64, error) {
		return cl.blobSession().Get(p, container, name)
	})
}

// PutBlob uploads a blob. With overwrite false an existing name fails with
// CodeBlobExists.
func (cl *Client) PutBlob(p *sim.Proc, container, name string, size int64, overwrite bool) error {
	_, err := observe(cl, p, "blob.Put", func() (struct{}, error) {
		return struct{}{}, cl.blobSession().Put(p, container, name, size, overwrite)
	})
	return err
}

// BlobExists checks existence.
func (cl *Client) BlobExists(p *sim.Proc, container, name string) (bool, error) {
	return observe(cl, p, "blob.Exists", func() (bool, error) {
		return cl.blobSession().Exists(p, container, name)
	})
}

// DeleteBlob removes a blob.
func (cl *Client) DeleteBlob(p *sim.Proc, container, name string) error {
	_, err := observe(cl, p, "blob.Delete", func() (struct{}, error) {
		return struct{}{}, cl.blobSession().Delete(p, container, name)
	})
	return err
}

// --- Table API ---

// CreateTable creates a table if it does not exist.
func (cl *Client) CreateTable(name string) { cl.cloud.Table.CreateTable(name) }

// InsertEntity inserts a new entity.
func (cl *Client) InsertEntity(p *sim.Proc, table string, e *tablesvc.Entity) error {
	_, err := observe(cl, p, "table.Insert", func() (struct{}, error) {
		return struct{}{}, cl.cloud.Table.Insert(p, table, e)
	})
	return err
}

// GetEntity queries one entity by partition and row key (the indexed path).
func (cl *Client) GetEntity(p *sim.Proc, table, pk, rk string) (*tablesvc.Entity, error) {
	return observe(cl, p, "table.Query", func() (*tablesvc.Entity, error) {
		return cl.cloud.Table.Get(p, table, pk, rk)
	})
}

// UpdateEntity replaces an entity unconditionally.
func (cl *Client) UpdateEntity(p *sim.Proc, table string, e *tablesvc.Entity) error {
	_, err := observe(cl, p, "table.Update", func() (struct{}, error) {
		return struct{}{}, cl.cloud.Table.Update(p, table, e)
	})
	return err
}

// DeleteEntity removes an entity.
func (cl *Client) DeleteEntity(p *sim.Proc, table, pk, rk string) error {
	_, err := observe(cl, p, "table.Delete", func() (struct{}, error) {
		return struct{}{}, cl.cloud.Table.Delete(p, table, pk, rk)
	})
	return err
}

// QueryEntities scans a partition with a property filter (the non-indexed
// path the paper warns about).
func (cl *Client) QueryEntities(p *sim.Proc, table, pk string, pred func(*tablesvc.Entity) bool) ([]*tablesvc.Entity, error) {
	return observe(cl, p, "table.QueryFilter", func() ([]*tablesvc.Entity, error) {
		return cl.cloud.Table.QueryFilter(p, table, pk, pred)
	})
}

// --- Queue API ---

// CreateQueue creates (or fetches) a queue.
func (cl *Client) CreateQueue(name string) *queuesvc.Queue {
	return cl.cloud.Queue.CreateQueue(name)
}

// AddMessage enqueues a message body padded to size bytes.
func (cl *Client) AddMessage(p *sim.Proc, q *queuesvc.Queue, body string, size int) (uint64, error) {
	return observe(cl, p, "queue.Add", func() (uint64, error) {
		return cl.cloud.Queue.Add(p, q, body, size)
	})
}

// Peek returns the first visible message without state change. An empty
// queue is CodeNotFound — the same axis every other miss on the client API
// reports — so callers branch with storerr.IsCode instead of a second
// boolean channel.
func (cl *Client) Peek(p *sim.Proc, q *queuesvc.Queue) (*queuesvc.Message, error) {
	return observe(cl, p, "queue.Peek", func() (*queuesvc.Message, error) {
		m, ok, err := cl.cloud.Queue.Peek(p, q)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, storerr.New(storerr.CodeNotFound, "queue.Peek", "no visible messages")
		}
		return m, nil
	})
}

// Receive pops the first visible message, hiding it for the visibility
// window (zero means the service default), and returns it paired with the
// pop receipt that authorises its deletion. An empty queue is CodeNotFound,
// as Peek.
func (cl *Client) Receive(p *sim.Proc, q *queuesvc.Queue, visibility time.Duration) (*queuesvc.Received, error) {
	return observe(cl, p, "queue.Receive", func() (*queuesvc.Received, error) {
		m, rcpt, ok, err := cl.cloud.Queue.Receive(p, q, visibility)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, storerr.New(storerr.CodeNotFound, "queue.Receive", "no visible messages")
		}
		return &queuesvc.Received{Msg: m, Receipt: rcpt}, nil
	})
}

// PeekMessage returns the first visible message without state change, with
// an empty queue reported as ok=false rather than an error.
//
// Deprecated: use Peek, which folds the empty-queue case into the client's
// single storerr error axis (CodeNotFound). PeekMessage remains for callers
// calibrated against its ok-channel accounting (an empty peek records a
// success in Ops).
func (cl *Client) PeekMessage(p *sim.Proc, q *queuesvc.Queue) (*queuesvc.Message, bool, error) {
	type peek struct {
		m  *queuesvc.Message
		ok bool
	}
	v, err := observe(cl, p, "queue.Peek", func() (peek, error) {
		m, ok, err := cl.cloud.Queue.Peek(p, q)
		return peek{m, ok}, err
	})
	return v.m, v.ok, err
}

// ReceiveMessage pops the first visible message, hiding it for the
// visibility window.
//
// Deprecated: use Receive, which returns a *queuesvc.Received and reports
// an empty queue as CodeNotFound instead of a separate ok channel.
func (cl *Client) ReceiveMessage(p *sim.Proc, q *queuesvc.Queue, visibility time.Duration) (*queuesvc.Message, queuesvc.Receipt, bool, error) {
	type recv struct {
		m    *queuesvc.Message
		rcpt queuesvc.Receipt
		ok   bool
	}
	v, err := observe(cl, p, "queue.Receive", func() (recv, error) {
		m, rcpt, ok, err := cl.cloud.Queue.Receive(p, q, visibility)
		return recv{m, rcpt, ok}, err
	})
	return v.m, v.rcpt, v.ok, err
}

// DeleteMessage removes a received message by receipt.
func (cl *Client) DeleteMessage(p *sim.Proc, q *queuesvc.Queue, r queuesvc.Receipt) error {
	_, err := observe(cl, p, "queue.Delete", func() (struct{}, error) {
		return struct{}{}, cl.cloud.Queue.Delete(p, q, r)
	})
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
