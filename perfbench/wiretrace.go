package main

import (
	"bytes"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/sim"
)

// wireTracer times each request of a traced wire round at the layer
// boundaries the benchmark owns: an http.Handler around the facade's
// ServeHTTP and a wire.Gate around sim.RealTime. One request's timeline:
//
//	start      the handler is entered (the request is parsed by net/http)
//	call       the facade calls Gate.Do
//	fnStart    the engine goroutine starts the request's closure
//	firstWrite the facade writes the reply header (the engine has answered)
//	end        ServeHTTP returns
//
// gate wait is call→fnStart, engine time fnStart→firstWrite, and parse and
// write the rest of start→end. The gate learns which request it serves from
// the calling goroutine, which the handler registered on entry. Only
// sampled requests (see traceEvery) carry an id and are timed: finding the
// calling goroutine costs a stack walk.
type wireTracer struct {
	rt    *sim.RealTime
	cloud *azure.Cloud

	// engine side: counters at the start of the measured section, peaks
	// sampled when a sampled request enters the engine
	tap                    *storageTap
	events0, procs0, xfer0 uint64
	pendingPeak, flowsPeak int

	mu       sync.Mutex
	inflight map[uint64]*reqTrace // by handler goroutine
	done     map[string]*reqTrace // by request id
	clientNS map[string]int64     // client-observed latency by request id
}

type reqTrace struct {
	start, call, fnStart, firstWrite, end time.Time
}

func newWireTracer(rt *sim.RealTime, cloud *azure.Cloud) *wireTracer {
	return &wireTracer{
		rt:       rt,
		cloud:    cloud,
		tap:      tapStorage(cloud),
		inflight: map[uint64]*reqTrace{},
		done:     map[string]*reqTrace{},
		clientNS: map[string]int64{},
	}
}

// startRun marks the start of the measured section; it runs on the engine
// goroutine.
func (t *wireTracer) startRun() {
	eng := t.cloud.Engine
	t.events0, t.procs0 = eng.EventsFired(), eng.ProcsSpawned()
	t.xfer0 = t.cloud.Blob.Downloads() + t.cloud.Blob.Uploads()
	*t.tap = storageTap{}
}

// Do implements wire.Gate.
func (t *wireTracer) Do(fn func()) bool {
	call := time.Now()
	var rec *reqTrace
	t.mu.Lock()
	if len(t.inflight) > 0 {
		rec = t.inflight[goroutineID()]
	}
	t.mu.Unlock()
	if rec == nil {
		return t.rt.Do(fn)
	}
	rec.call = call
	// Do returns after fn has run, so rec.fnStart is visible here.
	return t.rt.Do(func() {
		rec.fnStart = time.Now()
		t.pendingPeak = max(t.pendingPeak, t.cloud.Engine.Pending())
		t.flowsPeak = max(t.flowsPeak, t.cloud.DC.Net().ActiveFlows())
		fn()
	})
}

func (t *wireTracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(traceHeader)
		if id == "" {
			next.ServeHTTP(w, r)
			return
		}
		rec := &reqTrace{start: time.Now()}
		g := goroutineID()
		t.mu.Lock()
		t.inflight[g] = rec
		t.mu.Unlock()
		next.ServeHTTP(&firstWriter{ResponseWriter: w, rec: rec}, r)
		rec.end = time.Now()
		t.mu.Lock()
		delete(t.inflight, g)
		t.done[id] = rec
		t.mu.Unlock()
	})
}

// client records the load generator's latency for request id.
func (t *wireTracer) client(id string, d time.Duration) {
	t.mu.Lock()
	t.clientNS[id] = d.Nanoseconds()
	t.mu.Unlock()
}

// firstWriter notes when the reply starts.
type firstWriter struct {
	http.ResponseWriter
	rec *reqTrace
}

func (w *firstWriter) mark() {
	if w.rec.firstWrite.IsZero() {
		w.rec.firstWrite = time.Now()
	}
}

func (w *firstWriter) WriteHeader(status int) {
	w.mark()
	w.ResponseWriter.WriteHeader(status)
}

func (w *firstWriter) Write(b []byte) (int, error) {
	w.mark()
	return w.ResponseWriter.Write(b)
}

// layers computes the round's per-layer metrics: the wire.* timings, and
// the engine and storage counters read on the engine goroutine.
func (w *wireRound) layers(ops uint64) map[string]float64 {
	t := w.tr
	var serve, parseWrite, wait, engine, transport []float64
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	t.mu.Lock()
	for id, rec := range t.done {
		if rec.fnStart.IsZero() || rec.firstWrite.IsZero() {
			continue // answered without entering the engine
		}
		s := rec.end.Sub(rec.start)
		serve = append(serve, us(s))
		parseWrite = append(parseWrite, us(s-rec.firstWrite.Sub(rec.call)))
		wait = append(wait, us(rec.fnStart.Sub(rec.call)))
		engine = append(engine, us(rec.firstWrite.Sub(rec.fnStart)))
		if c, ok := t.clientNS[id]; ok {
			transport = append(transport, us(time.Duration(c)-s))
		}
	}
	t.mu.Unlock()
	for _, xs := range [][]float64{serve, parseWrite, wait, engine, transport} {
		sort.Float64s(xs)
	}
	l := map[string]float64{
		"wire.serve_us_p50":       quantile(serve, 0.5),
		"wire.parse_write_us_p50": quantile(parseWrite, 0.5),
		"wire.gate_wait_us_p50":   quantile(wait, 0.5),
		"wire.gate_wait_us_p99":   quantile(wait, 0.99),
		"wire.engine_us_p50":      quantile(engine, 0.5),
		"wire.transport_us_p50":   quantile(transport, 0.5),
	}
	n := float64(ops)
	w.rt.Do(func() {
		eng := w.cloud.Engine
		l["sim.events_per_op"] = float64(eng.EventsFired()-t.events0) / n
		l["sim.procs_per_op"] = float64(eng.ProcsSpawned()-t.procs0) / n
		l["sim.workers_peak"] = float64(eng.WorkersPeak())
		l["sim.pending_peak"] = float64(t.pendingPeak)
		l["netsim.flows_per_op"] = float64(w.cloud.Blob.Downloads()+w.cloud.Blob.Uploads()-t.xfer0) / n
		l["netsim.active_flows_peak"] = float64(t.flowsPeak)
		t.tap.addLayers(l, ops)
	})
	return l
}

// goroutineID parses the calling goroutine's id from its stack header,
// "goroutine 123 [running]:".
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
