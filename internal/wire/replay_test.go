package wire

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/core"
)

func embeddedArrivals(t *testing.T) []Arrival {
	t.Helper()
	arrivals, err := ParseArrivals(strings.NewReader(arrivalsLog))
	if err != nil {
		t.Fatalf("embedded arrivals.log: %v", err)
	}
	if len(arrivals) == 0 {
		t.Fatal("embedded arrivals.log is empty")
	}
	return arrivals
}

// TestReplayDeterminism replays the exemplar session twice on fresh clouds
// and requires bit-identical traces — the facade adds no hidden
// nondeterminism on top of the kernel.
func TestReplayDeterminism(t *testing.T) {
	arrivals := embeddedArrivals(t)
	cfg := azure.Config{Seed: replaySeed}
	a := Replay(cfg, arrivals)
	b := Replay(cfg, arrivals)
	if len(a) != len(arrivals) || len(b) != len(arrivals) {
		t.Fatalf("trace lengths %d/%d, want %d", len(a), len(b), len(arrivals))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d diverges between replays:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
	if ha, hb := TraceHash(a), TraceHash(b); ha != hb {
		t.Fatalf("trace hashes diverge: %#x vs %#x", ha, hb)
	}
	for i, e := range a {
		if e.End < e.At {
			t.Errorf("entry %d completed at %v before its arrival %v", i, e.End, e.At)
		}
		if e.Status == 0 {
			t.Errorf("entry %d has no status", i)
		}
	}
}

// TestReplayPinnedHash is the bit-identity anchor: the exemplar session's
// trace hash is pinned, so any change to kernel ordering, service timing or
// facade routing that shifts one completion instant fails here (and in the
// wirereplay registry experiment). On failure the full trace is logged for
// re-pinning after an intentional change.
func TestReplayPinnedHash(t *testing.T) {
	arrivals := embeddedArrivals(t)
	trace := Replay(azure.Config{Seed: replaySeed}, arrivals)
	h := TraceHash(trace)
	if h != pinnedTraceHash {
		for _, e := range trace {
			t.Logf("%3d at=%-12v end=%-14v status=%d code=%q size=%d",
				e.Index, e.At, e.End, e.Status, e.Code, e.Size)
		}
		t.Fatalf("trace hash %#x, pinned %#x", h, uint64(pinnedTraceHash))
	}
}

// TestReplayExperimentAnchors runs the registered experiment end to end.
func TestReplayExperimentAnchors(t *testing.T) {
	res := replayExperiment{}.Run(core.Proto{})
	anchors := res.Anchors()
	if len(anchors) != 2 {
		t.Fatalf("got %d anchors, want 2", len(anchors))
	}
	for _, a := range anchors {
		if a.Measured != a.Paper {
			t.Errorf("anchor %q: measured %v, want %v", a.Name, a.Measured, a.Paper)
		}
	}
}

// TestArrivalLogRoundTrip pins the text format: record → serialize → parse
// reproduces the arrivals exactly, including escaped bodies.
func TestArrivalLogRoundTrip(t *testing.T) {
	rec := NewRecorder()
	rec.record(0, parseOp("PUT", "/c", 0, ""))
	rec.record(1500, parseOp("POST", "/queue/q/messages", 0, "hello world & <xml>"))
	rec.record(3000, parseOp("PUT", "/c/blob?ifabsent=1", 1024, ""))
	var b strings.Builder
	if _, err := rec.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseArrivals(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("round trip parse: %v\nlog:\n%s", err, b.String())
	}
	if len(parsed) != len(rec.Arrivals()) {
		t.Fatalf("round trip length %d, want %d", len(parsed), len(rec.Arrivals()))
	}
	for i, want := range rec.Arrivals() {
		if parsed[i] != want {
			t.Errorf("arrival %d: got %+v, want %+v", i, parsed[i], want)
		}
	}
}

// A body at the facade's size limit whose every byte escapes reads back:
// its log line is three times the body, past a scanner limit sized to the
// body alone.
func TestArrivalLogRoundTripMaxBody(t *testing.T) {
	rec := NewRecorder()
	rec.record(0, parseOp("PUT", "/queue/q", 0, ""))
	rec.record(1, parseOp("POST", "/queue/q/messages", 0, strings.Repeat("/", maxBody)))
	var b strings.Builder
	if _, err := rec.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseArrivals(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("%d-byte log does not parse: %v", b.Len(), err)
	}
	if len(parsed) != 2 || parsed[1] != rec.Arrivals()[1] {
		t.Fatal("max-size body did not survive the arrival log")
	}
}

// TestParseArrivalsRejectsMalformed pins the error behaviour.
func TestParseArrivalsRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"not a number PUT /c 0 -",
		"0 PUT /c",
		"0 PUT /c zero -",
		"0 PUT /c 0 %zz",
	} {
		if _, err := ParseArrivals(strings.NewReader(line)); err == nil {
			t.Errorf("line %q parsed without error", line)
		}
	}
}

// TestReplayGoroutineBaseline replays a short session on the default
// fabric, whose host-degradation process runs for the cloud's lifetime,
// and checks that no goroutine outlives the replay.
func TestReplayGoroutineBaseline(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		Replay(azure.Config{Seed: 1}, fuzzSetup)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after replaying, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
