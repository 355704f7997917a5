package wire

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"azureobs/internal/azure"
)

// benchWriter is a reusable http.ResponseWriter that keeps only the status,
// so the benchmark counts the facade's allocations, not a recorder's.
type benchWriter struct {
	h      http.Header
	status int
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) WriteHeader(status int)      { w.status = status }
func (w *benchWriter) Write(p []byte) (int, error) { return len(p), nil }

// benchBody is a request body that can be rewound for the next request.
type benchBody struct{ strings.Reader }

func (*benchBody) Close() error { return nil }

// BenchmarkServeHTTPMix serves the perfbench wire workload's five-op mix —
// blob GET, blob PUT, entity insert, entity GET and queue put, in turn —
// straight through ServeHTTP over a draining InlineGate: the facade's parse,
// dispatch and reply cost, without a network. One op is one request.
func BenchmarkServeHTTPMix(b *testing.B) {
	cloud := azure.NewCloud(azure.Config{Seed: testSeed})
	f := New(cloud, NewInlineGate(cloud.Engine, true))
	w := &benchWriter{h: http.Header{}}
	serve := func(r *http.Request, want int) {
		clear(w.h)
		w.status = 0
		f.ServeHTTP(w, r)
		if w.status != want {
			b.Fatalf("%s %s: status %d, want %d", r.Method, r.URL.Path, w.status, want)
		}
	}
	sized := func(method, target string, size int) *http.Request {
		r := httptest.NewRequest(method, target, nil)
		r.Header.Set("x-ms-size", strconv.Itoa(size))
		return r
	}
	serve(httptest.NewRequest("PUT", "/c", nil), 201)
	serve(httptest.NewRequest("PUT", "/table/t", nil), 201)
	serve(httptest.NewRequest("PUT", "/queue/q", nil), 201)
	serve(sized("PUT", "/c/seed", 2048), 201)
	serve(sized("POST", "/table/t/p/seed", 768), 201)

	blobGet := httptest.NewRequest("GET", "/c/seed", nil)
	blobPut := sized("PUT", "/c/own", 3072)
	insert := sized("POST", "/table/t/p/r", 768)
	entityGet := httptest.NewRequest("GET", "/table/t/p/seed", nil)
	msg := &benchBody{}
	queuePut := httptest.NewRequest("POST", "/queue/q/messages", msg)
	rows := make([]string, b.N/5+1)
	for i := range rows {
		rows[i] = "/table/t/p/r" + strconv.Itoa(i)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch i % 5 {
		case 0:
			serve(blobGet, 200)
		case 1:
			serve(blobPut, 201)
		case 2:
			insert.URL.Path = rows[i/5]
			serve(insert, 201)
		case 3:
			serve(entityGet, 200)
		default:
			msg.Reset("m")
			serve(queuePut, 201)
		}
	}
}
