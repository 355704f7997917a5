package wire

import (
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// maxBody bounds request bodies read into memory. Payload size is normally
// declared out-of-band (x-ms-size / ?size=) precisely so large simulated
// objects never cross the wire as real bytes.
const maxBody = 4 << 20

// ServeHTTP implements http.Handler. The request is parsed to canonical
// form on the HTTP goroutine; only the resulting closure crosses the Gate
// onto the engine. Poll-style reads (healthz, /operations/<id>,
// /control/echoerr) are answered directly — they touch no engine state and
// deliberately stay out of the arrival record.
func (f *Facade) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	segs := splitPath(r.URL.Path)
	if len(segs) > 0 {
		switch segs[0] {
		case "healthz":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
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
	if r.Body != nil {
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
	uri := r.URL.RequestURI()
	// Fold the headers that carry op semantics into the canonical URI, so
	// the recorded form captures them.
	if r.Header.Get("If-None-Match") == "*" {
		uri = addQuery(uri, "ifabsent=1")
	}
	if s := r.Header.Get("x-ms-size"); s != "" {
		uri = addQuery(uri, "size="+url.QueryEscape(s))
	}
	op := parseOp(r.Method, uri, int64(len(body)), string(body))

	resCh := make(chan wireResult, 1)
	ok := f.gate.Do(func() {
		f.start(op, func(res wireResult) { resCh <- res })
	})
	if !ok {
		writeErrorRaw(w, 503, "ServerBusy", "server is shutting down")
		return
	}
	// Free-run gates drain before Do returns, so the result is already
	// buffered; paced gates deliver when virtual time catches up.
	f.writeResult(w, r, <-resCh)
}

func addQuery(uri, kv string) string {
	if strings.Contains(uri, "?") {
		return uri + "&" + kv
	}
	return uri + "?" + kv
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
	w.Header().Set("Content-Type", "application/xml")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
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

func (f *Facade) writeResult(w http.ResponseWriter, r *http.Request, res wireResult) {
	if res.err != nil {
		writeError(w, res.err)
		return
	}
	h := w.Header()
	if res.reqID != "" {
		h.Set("x-ms-request-id", res.reqID)
	}
	if res.location != "" {
		h.Set("Location", res.location)
	}
	if res.popRcpt != "" {
		h.Set("x-ms-popreceipt", res.popRcpt)
	}
	if res.ctype != "" {
		h.Set("Content-Type", res.ctype)
	}
	if res.bodySize > 0 {
		h.Set("Content-Length", strconv.FormatInt(res.bodySize, 10))
		w.WriteHeader(res.status)
		if r.Method != "HEAD" {
			writeZeros(w, res.bodySize)
		}
		return
	}
	if res.body != "" {
		h.Set("Content-Length", strconv.Itoa(len(res.body)))
	}
	w.WriteHeader(res.status)
	if res.body != "" {
		io.WriteString(w, res.body) //nolint:errcheck
	}
}

// writeZeros streams n zero bytes — simulated blob payloads have size but
// no content.
func writeZeros(w io.Writer, n int64) {
	buf := make([]byte, 32*1024)
	for n > 0 {
		chunk := int64(len(buf))
		if n < chunk {
			chunk = n
		}
		m, err := w.Write(buf[:chunk])
		n -= int64(m)
		if err != nil {
			return
		}
	}
}
