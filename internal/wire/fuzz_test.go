package wire

import (
	"strings"
	"testing"
	"time"
	"unicode"

	"azureobs/internal/azure"
	"azureobs/internal/fabric"
)

// fuzzSetup gives the fuzzed op something to act on: a container with a
// blob, a table with a row and a queue with a message.
var fuzzSetup = []Arrival{
	{Method: "PUT", URI: "/c"},
	{Method: "PUT", URI: "/c/b", Size: 4096},
	{Method: "PUT", URI: "/table/t"},
	{Method: "POST", URI: "/table/t/p/r", Size: 512},
	{Method: "PUT", URI: "/queue/q"},
	{Method: "POST", URI: "/queue/q/messages", Body: "m"},
}

// fuzzReplayConfig turns off host degradation: its process sleeps forever
// on the engine, so every replayed cloud would keep a goroutine alive for
// the rest of the fuzzing run.
func fuzzReplayConfig() azure.Config {
	cfg := azure.Config{Seed: 1, Fabric: fabric.DefaultConfig()}
	cfg.Fabric.Degradation = false
	return cfg
}

// loggable reports whether s can stand as one field of an arrival-log line.
// The live facade only ever records such methods and URIs: net/http splits
// the request line on spaces, and RequestURI escapes the rest.
func loggable(s string) bool {
	return s != "" && strings.IndexFunc(s, unicode.IsSpace) < 0
}

// FuzzParseOp checks the parser on arbitrary (method, uri, size, body)
// tuples: every input yields a routable op or a typed 400 rejection, never
// a panic, the canonical form is kept verbatim, and a recorded op survives
// the arrival log (Recorder → WriteTo → ParseArrivals) and replays to the
// same trace hash as the in-memory recording.
func FuzzParseOp(f *testing.F) {
	f.Fuzz(func(t *testing.T, method, uri string, size int64, body string) {
		op := parseOp(method, uri, size, body)
		if op.method != method || op.uri != uri || op.body != body {
			t.Fatalf("canonical form altered: %q %q %q -> %q %q %q",
				method, uri, body, op.method, op.uri, op.body)
		}
		if op.invalid != nil {
			if op.invalid.status != 400 || (op.invalid.code != "InvalidUri" && op.invalid.code != "InvalidInput") {
				t.Fatalf("rejection %+v is not a typed 400", *op.invalid)
			}
		} else if op.kind == opInvalid {
			t.Fatalf("%s %q: neither routable nor rejected", method, uri)
		} else if op.size < 0 {
			t.Fatalf("%s %q: routable with negative size %d", method, uri, op.size)
		}
		if !loggable(method) || !loggable(uri) {
			return
		}

		rec := NewRecorder()
		at := time.Duration(0)
		for _, a := range fuzzSetup {
			rec.record(at, parseOp(a.Method, a.URI, a.Size, a.Body))
			at += time.Second
		}
		rec.record(at, op)
		var log strings.Builder
		if _, err := rec.WriteTo(&log); err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseArrivals(strings.NewReader(log.String()))
		if err != nil {
			t.Fatalf("arrival log does not parse: %v\n%s", err, log.String())
		}
		want := rec.Arrivals()
		if len(parsed) != len(want) {
			t.Fatalf("arrival log holds %d arrivals, want %d\n%s", len(parsed), len(want), log.String())
		}
		for i := range want {
			if parsed[i] != want[i] {
				t.Fatalf("arrival %d: log gives %+v, recorded %+v", i, parsed[i], want[i])
			}
		}
		cfg := fuzzReplayConfig()
		if h1, h2 := TraceHash(Replay(cfg, want)), TraceHash(Replay(cfg, parsed)); h1 != h2 {
			t.Fatalf("replay of the logged arrivals hashes %#x, of the recording %#x", h2, h1)
		}
	})
}
