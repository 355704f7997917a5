package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/wire"
)

// The wire workload serves the REST facade (the azserve handler) over
// loopback to a closed-loop load generator: one keep-alive connection that
// sends its next request when the last reply is read, as an SDK caller
// does. The requests are blob GET, blob PUT, entity insert, entity GET and
// queue put in equal shares, over a keyspace seeded through the same HTTP
// surface during set-up. The shares are chosen to give each facade path
// the same weight, not taken from a measured trace. It is the only workload
// that exercises the wire package, sim.RealTime and net/http. An op is one
// answered request. A round is wireRequests requests, under a second.
//
// One connection makes the request sequence the same in every round. With
// one connection per CPU, the client, server and engine goroutines
// outnumbered the host's two CPUs and the latency tail measured the host's
// scheduler: in one interleaved comparison over four seeds, p99 was
// 1.2-2.0 ms with two connections at GOMAXPROCS 2 and 0.26-0.33 ms with one
// at GOMAXPROCS 1.
const (
	wireRequests     = 20000
	wireWindow       = 500
	wireSeedBlobs    = 256
	wireSeedEntities = 256
	wireOwnBlobs     = 64 // blob names each connection overwrites
	wireTable        = "bench"
	wireQueue        = "bench"
	wireSeedPK       = "s"
	// traceHeader carries a sampled request's id from the load generator
	// to the traced handler, so client and server timings of one request
	// pair up. The facade ignores the header.
	traceHeader = "X-Bench-Id"
	// traceEvery is the sampling interval of a traced round: every
	// traceEvery-th request of a connection is timed layer by layer.
	traceEvery = 16
)

var wireWorkload = workload{
	name:       "wire",
	window:     wireWindow,
	perRequest: true,
	build:      buildWire,
}

type wireRound struct {
	cloud    *azure.Cloud
	rt       *sim.RealTime
	srv      *http.Server
	client   *http.Client
	base     string
	requests int // per connection and round

	serveDone, httpDone chan struct{}
	conns               []*wireConn
	seedSizes           []int64
	tr                  *wireTracer // traced rounds only
}

func buildWire(cfg roundConfig, tr *tracer) (r round, err error) {
	// The meter counts one connection's requests; more would need it
	// locked, and would make the request sequence follow the scheduler.
	const nconn = 1
	cloud := azure.NewCloud(azure.Config{Seed: cfg.seed})
	w := &wireRound{
		cloud:     cloud,
		rt:        sim.NewRealTime(cloud.Engine, sim.FreeRun),
		requests:  max(64, int(math.Round(wireRequests*cfg.scale))),
		serveDone: make(chan struct{}),
		httpDone:  make(chan struct{}),
	}
	var gate wire.Gate = w.rt
	if tr != nil {
		w.tr = newWireTracer(w.rt, cloud)
		gate = w.tr
	}
	facade := wire.New(cloud, gate)
	var handler http.Handler = facade
	if w.tr != nil {
		handler = w.tr.handler(facade)
	}
	go func() {
		defer close(w.serveDone)
		w.rt.Serve()
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.rt.Close()
		<-w.serveDone
		return nil, err
	}
	w.base = "http://" + ln.Addr().String()
	w.srv = &http.Server{Handler: handler}
	go func() {
		defer close(w.httpDone)
		w.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: nconn,
		MaxConnsPerHost:     nconn,
		DisableCompression:  true,
	}}
	defer func() {
		if err != nil {
			w.close()
		}
	}()

	root := simrand.New(cfg.seed).Fork("perfbench-wire")
	for i := 0; i < nconn; i++ {
		w.conns = append(w.conns, &wireConn{
			w: w, id: i, rng: *root.ForkN("conn", i),
			blobs: map[string]int64{},
		})
	}
	w.seedSizes = make([]int64, wireSeedBlobs)
	for i := range w.seedSizes {
		w.seedSizes[i] = int64(1024 + (i*397)%3072)
	}
	if err := w.seedKeyspace(); err != nil {
		return nil, fmt.Errorf("seeding: %w", err)
	}
	return w, nil
}

// seedKeyspace creates the containers, table and queue and the seeded blobs
// and entities through HTTP, one share per connection in parallel, which
// also opens every keep-alive connection before the measured section.
func (w *wireRound) seedKeyspace() error {
	reqs := []*wireReq{
		{method: "PUT", path: "/seed", status: 201},
		{method: "PUT", path: "/table/" + wireTable, status: 201},
		{method: "PUT", path: "/queue/" + wireQueue, status: 201},
	}
	for _, c := range w.conns {
		reqs = append(reqs, &wireReq{method: "PUT", path: fmt.Sprintf("/own%d", c.id), status: 201})
	}
	for _, r := range reqs {
		if err := w.conns[0].do(r); err != nil {
			return err
		}
	}
	errs := make([]error, len(w.conns))
	var wg sync.WaitGroup
	for ci, c := range w.conns {
		wg.Add(1)
		go func(ci int, c *wireConn) {
			defer wg.Done()
			for i := ci; i < wireSeedBlobs; i += len(w.conns) {
				r := &wireReq{method: "PUT", path: seedBlobPath(i), size: w.seedSizes[i], status: 201}
				if errs[ci] = c.do(r); errs[ci] != nil {
					return
				}
			}
			for i := ci; i < wireSeedEntities; i += len(w.conns) {
				r := &wireReq{method: "POST", path: entityPath(wireSeedPK, i), size: entitySize(i), status: 201}
				if errs[ci] = c.do(r); errs[ci] != nil {
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func seedBlobPath(i int) string { return fmt.Sprintf("/seed/b%03d", i) }

func entityPath(pk string, i int) string { return fmt.Sprintf("/table/%s/%s/r%d", wireTable, pk, i) }

func entitySize(i int) int64 { return int64(512 + (i*131)%512) }

// entityBody is the facade's JSON rendering of an entity.
func entityBody(pk string, i int) string {
	return fmt.Sprintf(`{"PartitionKey":%q,"RowKey":"r%d","Size":%d}`, pk, i, entitySize(i))
}

func (w *wireRound) run(m *meter) error {
	if w.tr != nil && !w.rt.Do(w.tr.startRun) {
		return errors.New("wire: the engine has stopped")
	}
	var wg sync.WaitGroup
	for _, c := range w.conns {
		wg.Add(1)
		go func(c *wireConn) {
			defer wg.Done()
			c.load(w.requests, m)
		}(c)
	}
	wg.Wait()
	return nil
}

func (w *wireRound) verify() (outcome, error) {
	var out outcome
	var mismatch error
	for _, c := range w.conns {
		out.ops += c.ops
		out.failed += c.failed
		if mismatch == nil {
			mismatch = c.firstErr
		}
	}
	if w.tr != nil {
		out.layers = w.layers(out.ops)
	}
	if mismatch != nil {
		return out, fmt.Errorf("wire: %d of %d replies did not match their request; first: %w", out.failed, out.ops, mismatch)
	}
	return out, w.readBack()
}

// readBack checks that every write the load generator made is stored:
// each connection's blobs by HTTP GET, its entities by HTTP GET of the
// last ones written and by the partition's entity count, and the queue by
// its message count.
func (w *wireRound) readBack() error {
	var puts, entities []int
	for _, c := range w.conns {
		for name, size := range c.blobs {
			if err := c.do(&wireReq{method: "GET", path: name, status: 200, bodyLen: int(size)}); err != nil {
				return fmt.Errorf("wire: read-back: %w", err)
			}
		}
		for i := max(0, c.entities-wireOwnBlobs); i < c.entities; i++ {
			pk := "c" + strconv.Itoa(c.id)
			body := entityBody(pk, i)
			if err := c.do(&wireReq{method: "GET", path: entityPath(pk, i), status: 200, want: body, bodyLen: len(body)}); err != nil {
				return fmt.Errorf("wire: read-back: %w", err)
			}
		}
		puts = append(puts, c.msgs)
		entities = append(entities, c.entities)
	}
	var stored []int
	var queued, wantQueued int
	ok := w.rt.Do(func() {
		for _, c := range w.conns {
			stored = append(stored, w.cloud.Table.PartitionSize(wireTable, "c"+strconv.Itoa(c.id)))
		}
		if q, ok := w.cloud.Queue.GetQueue(wireQueue); ok {
			queued = q.Len()
		}
	})
	if !ok {
		return errors.New("wire: read-back: the engine has stopped")
	}
	for i, n := range entities {
		if stored[i] != n {
			return fmt.Errorf("wire: read-back: connection %d inserted %d entities, table holds %d", i, n, stored[i])
		}
		wantQueued += puts[i]
	}
	if queued != wantQueued {
		return fmt.Errorf("wire: read-back: %d messages put, queue holds %d", wantQueued, queued)
	}
	return nil
}

func (w *wireRound) close() {
	w.srv.Close() //nolint:errcheck // closing the listener is the point
	<-w.httpDone
	w.client.CloseIdleConnections()
	w.rt.Close()
	<-w.serveDone
}

// wireReq is one request and what its reply must be.
type wireReq struct {
	method, path string
	size         int64  // x-ms-size header, 0 for none
	send         string // request body, none when empty
	id           string // traceHeader value, none when empty

	status  int
	bodyLen int    // reply length; -1 asks for a queue message receipt
	want    string // exact reply body, unchecked when empty
}

// wireConn is one connection of the load generator.
type wireConn struct {
	w   *wireRound
	id  int
	rng simrand.RNG

	blobs    map[string]int64 // own blob path → size last written
	entities int              // own entities inserted: rows r0..r(entities-1)
	msgs     int

	ops, failed uint64
	firstErr    error
	reply       bytes.Buffer
}

// load sends n requests of five kinds in equal shares: blob GET, blob PUT,
// entity insert, entity GET and queue put. Reads pick the seeded keyspace or
// the connection's own writes with equal odds.
func (c *wireConn) load(n int, m *meter) {
	for seq := 0; seq < n; seq++ {
		r := c.next()
		if c.w.tr != nil && seq%traceEvery == 0 {
			r.id = strconv.Itoa(c.id) + "-" + strconv.Itoa(seq)
		}
		t0 := time.Now()
		err := c.do(r)
		d := time.Since(t0)
		m.request(d)
		c.ops++
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = err
			}
		}
		if r.id != "" {
			c.w.tr.client(r.id, d)
		}
	}
}

func (c *wireConn) next() *wireReq {
	kind := int(c.rng.Float64() * 5)
	own := c.rng.Float64() < 0.5
	switch kind {
	case 0:
		if own && len(c.blobs) > 0 {
			i := int(c.rng.Float64() * wireOwnBlobs)
			if size, ok := c.blobs[c.ownBlob(i)]; ok {
				return &wireReq{method: "GET", path: c.ownBlob(i), status: 200, bodyLen: int(size)}
			}
		}
		i := int(c.rng.Float64() * wireSeedBlobs)
		return &wireReq{method: "GET", path: seedBlobPath(i), status: 200, bodyLen: int(c.w.seedSizes[i])}
	case 1:
		name := c.ownBlob(int(c.rng.Float64() * wireOwnBlobs))
		size := int64(1024 + int(c.rng.Float64()*3072))
		c.blobs[name] = size
		return &wireReq{method: "PUT", path: name, size: size, status: 201}
	case 2:
		i := c.entities
		c.entities++
		return &wireReq{method: "POST", path: entityPath("c"+strconv.Itoa(c.id), i), size: entitySize(i), status: 201}
	case 3:
		pk, i := wireSeedPK, int(c.rng.Float64()*wireSeedEntities)
		if own && c.entities > 0 {
			pk, i = "c"+strconv.Itoa(c.id), int(c.rng.Float64()*float64(c.entities))
		}
		body := entityBody(pk, i)
		return &wireReq{method: "GET", path: entityPath(pk, i), status: 200, want: body, bodyLen: len(body)}
	default:
		c.msgs++
		return &wireReq{method: "POST", path: "/queue/" + wireQueue + "/messages",
			send: "m" + strconv.Itoa(c.msgs), status: 201, bodyLen: -1}
	}
}

func (c *wireConn) ownBlob(i int) string { return fmt.Sprintf("/own%d/b%02d", c.id, i) }

// do sends one request and checks its status and reply body.
func (c *wireConn) do(r *wireReq) error {
	var body io.Reader
	if r.send != "" {
		body = strings.NewReader(r.send)
	}
	req, err := http.NewRequest(r.method, c.w.base+r.path, body)
	if err != nil {
		return err
	}
	if r.size > 0 {
		req.Header.Set("x-ms-size", strconv.FormatInt(r.size, 10))
	}
	if r.id != "" {
		req.Header.Set(traceHeader, r.id)
	}
	resp, err := c.w.client.Do(req)
	if err != nil {
		return err
	}
	c.reply.Reset()
	_, err = c.reply.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s %s: reading reply: %w", r.method, r.path, err)
	}
	got := c.reply.Bytes()
	switch {
	case resp.StatusCode != r.status:
		return fmt.Errorf("%s %s: status %d, want %d", r.method, r.path, resp.StatusCode, r.status)
	case r.bodyLen < 0 && !bytes.Contains(got, []byte("<MessageId>")):
		return fmt.Errorf("%s %s: reply %q has no message id", r.method, r.path, got)
	case r.bodyLen >= 0 && len(got) != r.bodyLen:
		return fmt.Errorf("%s %s: %d reply bytes, want %d", r.method, r.path, len(got), r.bodyLen)
	case r.want != "" && string(got) != r.want:
		return fmt.Errorf("%s %s: reply %q, want %q", r.method, r.path, got, r.want)
	}
	return nil
}
