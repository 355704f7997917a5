package azure

import (
	"time"

	"azureobs/internal/sim"
	"azureobs/internal/storage/tablesvc"
)

// clientFlat is a client's flat-mode plumbing: cached completion wrappers
// that run the client's record accounting before the caller's callback, so
// a flat operation records into the client's OpStats and recorder hook
// exactly as a blocking operation does, without allocating per request. One flat operation may be in flight
// per client — the closed-loop client shape.
type clientFlat struct {
	cl    *Client
	op    string
	start time.Duration

	blobDone func(int64, error)            // caller's blob completion
	entDone  func(*tablesvc.Entity, error) // caller's entity completion

	onBlob func(int64, error)            // cached observe wrapper for blob ops
	onEnt  func(*tablesvc.Entity, error) // cached observe wrapper for table Get
	tget   *tablesvc.GetFlat             // lazily built on first GetEntityFlat
}

func (cl *Client) flatState() *clientFlat {
	if cl.flat == nil {
		f := &clientFlat{cl: cl}
		f.onBlob = f.blobFinished
		f.onEnt = f.entFinished
		cl.flat = f
	}
	return cl.flat
}

func (f *clientFlat) begin(a *sim.Actor, op string) {
	if f.blobDone != nil || f.entDone != nil {
		panic("azure: client already has a flat operation in flight")
	}
	f.op = op
	f.start = a.Now()
}

func (f *clientFlat) blobFinished(size int64, err error) {
	f.cl.record(f.op, f.start, err)
	done := f.blobDone
	f.blobDone = nil
	done(size, err)
}

func (f *clientFlat) entFinished(ent *tablesvc.Entity, err error) {
	f.cl.record(f.op, f.start, err)
	done := f.entDone
	f.entDone = nil
	done(ent, err)
}

// GetBlobFlat is the flat-actor form of GetBlob: instead of blocking a
// process it drives the request with a's continuations, and done receives
// the blob size (0 on error) at the instant GetBlob would have returned —
// after the client's stats and recorder hook have seen the operation, as
// with the blocking form.
func (cl *Client) GetBlobFlat(a *sim.Actor, container, name string, done func(size int64, err error)) {
	f := cl.flatState()
	f.begin(a, "blob.Get")
	f.blobDone = done
	cl.blobSession().GetFlat(a, container, name, f.onBlob)
}

// PutBlobFlat is the flat-actor form of PutBlob; done receives the uploaded
// size and the outcome.
func (cl *Client) PutBlobFlat(a *sim.Actor, container, name string, size int64, overwrite bool, done func(size int64, err error)) {
	f := cl.flatState()
	f.begin(a, "blob.Put")
	f.blobDone = done
	cl.blobSession().PutFlat(a, container, name, size, overwrite, f.onBlob)
}

// GetEntityFlat is the flat-actor form of GetEntity.
func (cl *Client) GetEntityFlat(a *sim.Actor, table, pk, rk string, done func(*tablesvc.Entity, error)) {
	f := cl.flatState()
	if f.tget == nil {
		f.tget = cl.cloud.Table.NewGetFlat(f.onEnt)
	}
	f.begin(a, "table.Query")
	f.entDone = done
	f.tget.Begin(a, table, pk, rk)
}
