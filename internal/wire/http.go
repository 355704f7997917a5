package wire

import (
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// maxBody bounds request bodies read into memory. Payload size is normally
// declared out-of-band (x-ms-size / ?size=) precisely so large simulated
// objects never cross the wire as real bytes.
const maxBody = 4 << 20

// call is one request's passage through the gate. Calls are pooled, with
// the closure Gate.Do runs and the delivery callback bound once, so a
// request allocates neither. The outcome lands in the 1-buffered res slot:
// a free-run gate fills it before Do returns, a paced one when virtual time
// reaches the request's completion.
type call struct {
	f       *Facade
	op      wireOp
	res     chan wireResult
	start   func()
	deliver func(wireResult)
}

var calls = sync.Pool{New: func() any {
	c := &call{res: make(chan wireResult, 1)}
	c.start = func() { c.f.start(&c.op, c.deliver) }
	c.deliver = func(r wireResult) { c.res <- r }
	return c
}}

// ServeHTTP implements http.Handler. The request is parsed to canonical
// form on the HTTP goroutine; only the resulting closure crosses the Gate
// onto the engine. Poll-style reads (healthz, /operations/<id>,
// /control/echoerr) are answered directly — they touch no engine state and
// deliberately stay out of the arrival record.
func (f *Facade) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var buf [maxSegs]string
	segs := splitPath(buf[:0], r.URL.Path)
	if len(segs) > 0 {
		switch segs[0] {
		case "healthz":
			w.Header()["Content-Type"] = ctypeText
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "ok\n") //nolint:errcheck
			return
		case "operations":
			f.serveOperation(w, segs)
			return
		case "control":
			if len(segs) == 2 && segs[1] == "echoerr" {
				f.serveEchoErr(w, r)
				return
			}
		}
	}

	var body []byte
	if r.Body != nil && r.Body != http.NoBody {
		var err error
		// Read one byte past the bound: a body that reaches it is rejected
		// whole rather than silently truncated.
		body, err = io.ReadAll(io.LimitReader(r.Body, maxBody+1))
		if err != nil {
			writeErrorRaw(w, 400, "InvalidInput", "unreadable request body")
			return
		}
		if len(body) > maxBody {
			writeErrorRaw(w, http.StatusRequestEntityTooLarge, "RequestBodyTooLarge",
				"request body exceeds the "+strconv.Itoa(maxBody)+"-byte limit")
			return
		}
	}
	c := calls.Get().(*call)
	c.f = f
	c.op.parse(r.Method, canonicalURI(r), int64(len(body)), string(body))
	if !f.gate.Do(c.start) {
		// A paced gate that closed may report false after running the
		// closure, so the call is not pooled again.
		writeErrorRaw(w, 503, "ServerBusy", "server is shutting down")
		return
	}
	res := <-c.res
	c.f, c.op = nil, wireOp{}
	calls.Put(c)
	f.writeResult(w, r, &res)
}

// canonicalURI is the request URI with the headers that carry op semantics
// folded in as query parameters, so the recorded form captures them.
func canonicalURI(r *http.Request) string {
	uri := r.URL.RequestURI()
	if r.Header.Get("If-None-Match") == "*" {
		uri = addQuery(uri, "ifabsent=", "1")
	}
	if s := r.Header.Get("X-Ms-Size"); s != "" {
		uri = addQuery(uri, "size=", url.QueryEscape(s))
	}
	return uri
}

func addQuery(uri, key, value string) string {
	sep := "?"
	if strings.Contains(uri, "?") {
		sep = "&"
	}
	return uri + sep + key + value
}

func (f *Facade) serveOperation(w http.ResponseWriter, segs []string) {
	if len(segs) != 2 {
		writeErrorRaw(w, 400, "InvalidUri", "operations path must be /operations/<id>")
		return
	}
	o, ok := f.mgmt.snapshot(segs[1])
	if !ok {
		writeErrorRaw(w, 404, "NotFound", "operation "+segs[1])
		return
	}
	body := operationXML(o)
	h := w.Header()
	h["Content-Type"] = ctypeXML
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, body) //nolint:errcheck
}

// serveEchoErr routes ?code=<storerr code> through the real error path —
// the handle the all-codes wire test pulls to verify the envelope for codes
// that need elaborate fault setups to produce organically.
func (f *Facade) serveEchoErr(w http.ResponseWriter, r *http.Request) {
	code := r.URL.Query().Get("code")
	if code == "" {
		writeErrorRaw(w, 400, "InvalidInput", "code query parameter required")
		return
	}
	writeError(w, synthErr(code))
}

// Constant header values, shared by every response. net/http copies
// header values out and never writes into them.
var (
	ctypeText  = []string{"text/plain; charset=utf-8"}
	ctypeXML   = []string{"application/xml"}
	ctypeJSON  = []string{"application/json"}
	ctypeOctet = []string{"application/octet-stream"}
)

// writeResult renders res. Header keys are set in canonical form directly;
// Header.Set would allocate the value slice and canonicalise each key.
func (f *Facade) writeResult(w http.ResponseWriter, r *http.Request, res *wireResult) {
	if res.err != nil {
		writeError(w, res.err)
		return
	}
	h := w.Header()
	if res.reqID != "" {
		h["X-Ms-Request-Id"] = []string{res.reqID}
	}
	if res.location != "" {
		h["Location"] = []string{res.location}
	}
	if res.popRcpt != "" {
		h["X-Ms-Popreceipt"] = []string{res.popRcpt}
	}
	if res.ctype != nil {
		h["Content-Type"] = res.ctype
	}
	if res.bodySize > 0 {
		h["Content-Length"] = []string{strconv.FormatInt(res.bodySize, 10)}
		w.WriteHeader(res.status)
		if r.Method != "HEAD" {
			writeZeros(w, res.bodySize)
		}
		return
	}
	if res.body != "" {
		h["Content-Length"] = []string{strconv.Itoa(len(res.body))}
	}
	w.WriteHeader(res.status)
	if res.body != "" {
		io.WriteString(w, res.body) //nolint:errcheck
	}
}

// zeros is the payload of every simulated blob, which has a size but no
// content. It is only ever read: io.Writer must not modify the slice.
var zeros [32 << 10]byte

// writeZeros streams n zero bytes.
func writeZeros(w io.Writer, n int64) {
	for n > 0 {
		chunk := int64(len(zeros))
		if n < chunk {
			chunk = n
		}
		m, err := w.Write(zeros[:chunk])
		n -= int64(m)
		if err != nil {
			return
		}
	}
}
