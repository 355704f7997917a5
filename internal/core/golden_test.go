package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"azureobs/internal/fabric"
	"azureobs/internal/geo"
)

// Trace goldens: every experiment below is hashed over the exact float64 bit
// patterns of its outputs (including sample insertion order, which reflects
// event ordering). The expected hashes were captured from the seed
// (from-scratch, map-based) netsim solver; the incremental fast path must
// reproduce each simulation trace bit-for-bit, so any hash drift here means
// an optimization changed observable behaviour, not just speed.
//
// To re-capture after an intentional behaviour change:
//
//	GOLDEN_PRINT=1 go test ./internal/core -run TestTraceGoldens -v

// goldenHasher folds encoded result fields into an FNV-64a hash and keeps
// the raw byte stream, so the same encoders serve both the trace goldens
// (compact hash) and the scheduler equivalence test (byte comparison).
type goldenHasher struct {
	h   hash.Hash64
	buf bytes.Buffer
}

func newGoldenHasher() *goldenHasher {
	return &goldenHasher{h: fnv.New64a()}
}

func (g *goldenHasher) write(b []byte) {
	g.h.Write(b)
	g.buf.Write(b)
}

func (g *goldenHasher) f64(x float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	g.write(b[:])
}

func (g *goldenHasher) i64(x int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(x))
	g.write(b[:])
}

func (g *goldenHasher) sum() uint64 { return g.h.Sum64() }

func (g *goldenHasher) bytes() []byte { return g.buf.Bytes() }

func (g *goldenHasher) summary(s interface {
	N() uint64
	Mean() float64
	Std() float64
}) {
	g.i64(int64(s.N()))
	g.f64(s.Mean())
	g.f64(s.Std())
}

// encodeResult serializes a result's observable fields in a fixed order.
// The per-type field orders predate the encoder and must not change: the
// goldenTraces hashes below were captured over exactly these streams.
func encodeResult(g *goldenHasher, res Result) {
	switch r := res.(type) {
	case *Fig1Result:
		for _, p := range r.Points {
			g.i64(int64(p.Clients))
			g.f64(p.DownMBps)
			g.f64(p.DownAggMBps)
			g.f64(p.UpMBps)
			g.f64(p.UpAggMBps)
			g.f64(p.DownMBpsStddev)
		}
	case *Fig2Result:
		for _, p := range r.Points {
			g.i64(int64(p.Clients))
			g.f64(p.InsertOps)
			g.f64(p.QueryOps)
			g.f64(p.UpdateOps)
			g.f64(p.DeleteOps)
			g.i64(int64(p.InsertSurvivors))
			g.i64(int64(p.DeleteSurvivors))
		}
	case *Fig3Result:
		for _, p := range r.Points {
			g.i64(int64(p.Clients))
			g.f64(p.AddOps)
			g.f64(p.PeekOps)
			g.f64(p.ReceiveOps)
		}
	case *TCPResult:
		for _, v := range r.LatencyMS.Values() {
			g.f64(v)
		}
		for _, v := range r.BandwidthMBps.Values() {
			g.f64(v)
		}
	case *ReplicationResult:
		for _, p := range r.Points {
			g.i64(int64(p.Replicas))
			g.f64(p.PerClientMBps)
			g.f64(p.AggregateMBps)
			g.f64(p.SpeedupVsOne)
			g.i64(int64(p.PerBlobClients))
		}
	case *Table1Result:
		// Hash a fixed cell list rather than map iteration order.
		for _, role := range []fabric.Role{fabric.Worker, fabric.Web} {
			for _, size := range []fabric.Size{fabric.Small, fabric.Medium, fabric.Large, fabric.ExtraLarge} {
				for _, phase := range []string{"Create", "Run", "Add", "Suspend", "Delete"} {
					g.summary(r.Cell(role, size, phase))
				}
			}
		}
		for _, v := range r.FirstReadyWorkerSmall.Values() {
			g.f64(v)
		}
		for _, v := range r.FirstReadyWebSmall.Values() {
			g.f64(v)
		}
		g.i64(int64(r.SuccessRuns))
		g.i64(int64(r.FailedRuns))
	case *PropFilterResult:
		for _, p := range r.Points {
			g.i64(int64(p.Clients))
			g.i64(int64(p.Queries))
			g.i64(int64(p.Timeouts))
			g.f64(p.MeanLatency)
		}
	case *QueueDepthResult:
		g.f64(r.SmallRate)
		g.f64(r.LargeRate)
	case *SQLCompareResult:
		for _, p := range r.Points {
			g.i64(int64(p.Clients))
			g.f64(p.SQLInsertOps)
			g.f64(p.SQLSelectOps)
			g.f64(p.TableInsertOps)
			g.f64(p.TableQueryOps)
			g.i64(int64(p.ThrottledOpens))
			g.i64(int64(p.ConnectedOpens))
		}
	case *StartupScalingResult:
		for i := range r.Points {
			p := &r.Points[i]
			g.i64(int64(p.Instances))
			g.summary(&p.FirstReady)
			g.summary(&p.AllReady)
		}
	case *Fig2SizeSweep:
		for i, sub := range r.Results {
			g.i64(int64(r.Sizes[i]))
			encodeResult(g, sub)
		}
	case *Fig3SizeSweep:
		for i, sub := range r.Results {
			g.i64(int64(r.Sizes[i]))
			encodeResult(g, sub)
		}
	case *Fig8GeoResult:
		g.i64(int64(r.Regions))
		for _, rep := range []*geo.Report{r.Lag, r.RYW, r.Kill} {
			encodeGeoReport(g, rep)
		}
	default:
		panic(fmt.Sprintf("no encoder for result type %T", res))
	}
}

// encodeGeoReport serializes every field of a geo world report in
// declaration order — the fig8geo equivalence test byte-compares these
// streams across scheduler widths.
func encodeGeoReport(g *goldenHasher, r *geo.Report) {
	g.i64(int64(r.Regions))
	g.i64(r.ReadsOK)
	g.i64(r.ReadsFailed)
	g.i64(r.WritesOK)
	g.i64(r.WritesFailed)
	g.i64(r.RemoteReads)
	g.i64(r.Commits)
	g.i64(r.Applies)
	g.f64(r.LagMeanSec)
	g.f64(r.LagMaxSec)
	g.f64(r.LagP50Sec)
	g.f64(r.LagP95Sec)
	g.i64(r.StaleReads)
	g.f64(r.StaleFrac)
	g.f64(r.RTOSec)
	g.f64(r.RPOSec)
	g.i64(r.LostWrites)
	g.i64(r.KilledFlaps)
	g.i64(r.TotalFlaps)
	g.i64(r.KilledFailed)
	g.i64(r.DeadVMs)
	g.f64(r.MeanLatencySec)
	g.f64(r.FinalVirtualSec)
}

// goldenTraces are the expected hashes, captured from the seed solver.
//
// These hashes double as the chaos-isolation pin: the chaos engine
// (internal/chaos) draws only from label-forked "chaos/*" streams, so with
// chaos disabled — as in every run below — introducing it changed no hash.
// Any future drift here under a chaos-related diff means that isolation
// broke.
//
// fig1 (both seeds), replication, propfilter and sqlcompare were regenerated
// when the storage services moved onto the reqpath pipeline: blob request
// latency, table scan latency and the SQL handshake now draw from dedicated
// per-stage "reqpath/latency" streams instead of the service's shared
// stream. The other five traces (fig2, fig3, queuedepth, table1, tcp) are
// bit-identical across that refactor — station contention and fabric paths
// draw from the same streams as before.
var goldenTraces = map[string]uint64{
	"fig1/seed42":        0xaf4a3dddc3b41031,
	"fig1/seed7":         0x5791b04a862afec3,
	"fig2/seed42":        0xcb599ca2efbae722,
	"fig3/seed42":        0x8a623ee40b857a3a,
	"propfilter/seed42":  0xc6dbf6abef0a04af,
	"queuedepth/seed42":  0xb23d12bd169dadbb,
	"replication/seed42": 0x04ac861d2f727926,
	"sqlcompare/seed42":  0xab1b6071084e3a89,
	"table1/seed42":      0x4e784a63e88ba312,
	"tcp/seed42":         0x78f20dbc473c956b,
}

// goldenConfigs builds the fixed reduced-scale runs the goldens hash. The
// scheduler width is the only knob the golden harness varies: at any
// width the hashes must match the serial captures above.
func goldenRuns(workers int) map[string]Result {
	w := func(p Proto) Proto {
		p.Workers = workers
		return p
	}
	return map[string]Result{
		"fig1/seed42": RunFig1(Fig1Config{
			Proto: w(Proto{Seed: 42, Clients: []int{1, 8, 32, 64, 128, 192}, Runs: 1}), BlobMB: 32}),
		"fig1/seed7": RunFig1(Fig1Config{
			Proto: w(Proto{Seed: 7, Clients: []int{1, 64, 192}, Runs: 2}), BlobMB: 16}),
		"fig2/seed42": RunFig2(Fig2Config{
			Proto: w(Proto{Seed: 42, Clients: []int{1, 8, 64}}), EntitySize: 4096,
			Inserts: 40, Queries: 40, Updates: 20}),
		"fig3/seed42": RunFig3(Fig3Config{
			Proto: w(Proto{Seed: 42, Clients: []int{1, 16, 64, 192}}), MsgSize: 512, OpsEach: 25}),
		"tcp/seed42": RunTCP(TCPConfig{
			Proto: w(Proto{Seed: 42}), LatencySamples: 500, BandwidthPairs: 40, TransfersPer: 2}),
		"replication/seed42": RunReplication(ReplicationConfig{
			Proto: w(Proto{Seed: 42}), Clients: 64, BlobMB: 32, Replicas: []int{1, 4}}),
		"table1/seed42": RunTable1(Table1Config{Proto: w(Proto{Seed: 42, Runs: 16})}),
		"propfilter/seed42": RunPropFilter(PropFilterConfig{
			Proto: w(Proto{Seed: 42, Clients: []int{1, 32}}), Entities: 60000}),
		"queuedepth/seed42": RunQueueDepth(QueueDepthConfig{
			Proto: w(Proto{Seed: 42}), SmallDepth: 5000, LargeDepth: 50000}),
		"sqlcompare/seed42": RunSQLCompare(SQLCompareConfig{
			Proto: w(Proto{Seed: 42, Clients: []int{1, 64}}), OpsEach: 25}),
	}
}

func traceHashes(workers int) map[string]uint64 {
	out := map[string]uint64{}
	for k, r := range goldenRuns(workers) {
		g := newGoldenHasher()
		encodeResult(g, r)
		out[k] = g.sum()
	}
	return out
}

func TestTraceGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("trace goldens are slow")
	}
	got := traceHashes(1)
	if os.Getenv("GOLDEN_PRINT") != "" {
		for _, k := range sortedKeys(got) {
			fmt.Printf("\t%q: %#016x,\n", k, got[k])
		}
	}
	for _, k := range sortedKeys(got) {
		want, ok := goldenTraces[k]
		if !ok {
			t.Errorf("no golden recorded for %s (got %#016x)", k, got[k])
			continue
		}
		if got[k] != want {
			t.Errorf("trace %s = %#016x, want %#016x (simulation no longer bit-identical)", k, got[k], want)
		}
	}
}

// TestTraceGoldensParallel is the scheduler's sharpest acceptance test: the
// same golden hashes must come out of a 4-wide pool.
func TestTraceGoldensParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("trace goldens are slow")
	}
	got := traceHashes(4)
	for _, k := range sortedKeys(got) {
		if want := goldenTraces[k]; got[k] != want {
			t.Errorf("trace %s at 4 workers = %#016x, want %#016x (parallel run not bit-identical)", k, got[k], want)
		}
	}
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
