// Package wire exposes the simulated cloud over the 2009-era Windows Azure
// REST surface: blob PUT/GET/HEAD/DELETE, table entity CRUD plus partition
// query, queue put/peek/get/delete with visibility timeouts, and a minimal
// Service Management endpoint whose lifecycle calls return 202 with a
// pollable operation — the long-running-operation shape Section 4.1's test
// program drove.
//
// The facade is a boundary adapter, not a second implementation: every
// request body routes to the same storage-service code the in-process SDK
// uses, via the flat (actor) request twins, and every storage error renders
// through the single storerr.Class table into the classic XML envelope.
// HTTP arrives on arbitrary goroutines; a Gate (normally sim.RealTime)
// gives one request at a time the engine, and the request runs as a flat
// continuation on a pooled connection actor. In free-run mode that happens
// on the handler's own goroutine, under the engine mutex; in paced mode on
// the serve loop. No goroutine is created per request, and the order the
// gate admits requests in is the arrival order, which replays
// bit-identically (see Replay).
package wire

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/sim"
	"azureobs/internal/storage/blobsvc"
	"azureobs/internal/storage/queuesvc"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/storage/storerr"
	"azureobs/internal/storage/tablesvc"
)

// Gate serialises closures' use of the engine: no two run at once, and the
// order they run in is the arrival order the recorder sees. Do runs fn
// (and, for free-run gates, drains the virtual work it started) and reports
// false if the gate is closed. sim.RealTime implements it.
type Gate interface {
	Do(fn func()) bool
}

// closingGate is a Gate that can close with requests in flight, as a paced
// sim.RealTime does: Done is closed once the gate advances virtual time no
// further, so a result not delivered by then never will be.
type closingGate interface {
	Gate
	Done() <-chan struct{}
}

// InlineGate is the test/replay gate: Do runs fn on the calling goroutine
// and, when drain is set, drains the engine afterwards. The caller owns the
// single-threading.
type InlineGate struct {
	eng   *sim.Engine
	drain bool
}

// NewInlineGate builds an inline gate; drain selects whether each Do runs
// the engine to quiescence (false lets tests observe in-progress state).
func NewInlineGate(eng *sim.Engine, drain bool) *InlineGate {
	return &InlineGate{eng: eng, drain: drain}
}

// Do implements Gate.
func (g *InlineGate) Do(fn func()) bool {
	fn()
	if g.drain {
		g.eng.Run()
	}
	return true
}

// Drain runs the engine to quiescence — for drain=false gates that want to
// advance explicitly.
func (g *InlineGate) Drain() { g.eng.Run() }

// opKind enumerates the routed operations.
type opKind int

const (
	opInvalid opKind = iota
	opContainerCreate
	opBlobPut
	opBlobGet
	opBlobHead
	opBlobDelete
	opTableCreate
	opEntityInsert
	opEntityGet
	opEntityUpdate
	opEntityDelete
	opPartitionQuery
	opQueueCreate
	opMsgPut
	opMsgPeek
	opMsgGet
	opMsgDelete
	opMgmtDeploy
	opMgmtAdd
	opMgmtSuspend
	opMgmtDelete
	opFaultsSet
)

// Declared-size limits of the 2009 storage services. A request declaring
// more is refused at parse time, before any size reaches a service.
const (
	maxBlobSize    = 200 << 30 // one blob
	maxEntitySize  = 1 << 20   // one table entity
	maxMessageSize = 8 << 10   // one queue message
)

// maxSegs is the longest routed path, in segments (/table/<t>/<pk>/<rk>).
const maxSegs = 4

// wireOp is one parsed request in canonical form: everything is derived
// from (method, uri, size, body), which is exactly what the recorder
// persists, so a replayed arrival dispatches identically to the live one.
type wireOp struct {
	kind   opKind
	method string
	uri    string // canonical request URI (path + folded query)
	size   int64
	body   string

	// blob
	container, blob string
	overwrite       bool
	// table
	table, pk, rk string
	// queue
	queue      string
	receipt    string
	visibility time.Duration
	// management
	spec  deploySpec
	count int
	// faults
	service string
	faults  reqpath.FaultConfig
	reset   bool

	invalid *wireError // non-nil: reject with this 400
}

// parseOp builds the canonical op. It never touches the engine.
func parseOp(method, uri string, size int64, body string) *wireOp {
	op := new(wireOp)
	op.parse(method, uri, size, body)
	return op
}

// parse overwrites op with the canonical form of one request. Names in op
// are substrings of uri, so parsing a well-formed request allocates
// nothing.
func (op *wireOp) parse(method, uri string, size int64, body string) {
	*op = wireOp{kind: opInvalid, method: method, uri: uri, size: size, body: body, overwrite: true}
	path, query, ok := splitRequestURI(uri)
	if !ok {
		op.reject("InvalidUri", "unparseable request URI")
		return
	}
	var buf [maxSegs]string
	segs := splitPath(buf[:0], path)
	if s := queryValue(query, "size"); s != "" {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n >= 0 {
			op.size = n
		}
	}
	if op.size == 0 {
		op.size = int64(len(body))
	}
	if queryValue(query, "ifabsent") == "1" {
		op.overwrite = false
	}
	if len(segs) == 0 {
		op.reject("InvalidUri", "empty path")
		return
	}
	switch segs[0] {
	case "table":
		parseTableOp(op, method, segs)
	case "queue":
		parseQueueOp(op, method, segs, query)
	case "management":
		parseMgmtOp(op, method, segs, query)
	case "control":
		parseControlOp(op, method, segs, query)
	case "healthz", "operations":
		// Served directly by ServeHTTP; reaching the router is a mistake.
		op.reject("InvalidUri", "reserved path")
	default:
		parseBlobOp(op, method, segs)
	}
	if op.invalid == nil {
		op.checkSize()
	}
}

func (op *wireOp) reject(code, msg string) {
	op.invalid = &wireError{status: 400, code: code, msg: msg}
}

// checkSize refuses a size no 2009 service accepts. Only a hand-written
// arrival log can carry a negative one: live sizes are declared
// non-negative or counted from the body.
func (op *wireOp) checkSize() {
	if op.size < 0 {
		op.reject("InvalidInput", "negative size")
		return
	}
	var limit int64
	switch op.kind {
	case opBlobPut:
		limit = maxBlobSize
	case opEntityInsert, opEntityUpdate:
		limit = maxEntitySize
	case opMsgPut:
		limit = maxMessageSize
	default:
		return
	}
	if op.size > limit {
		op.reject("InvalidInput", "size "+strconv.FormatInt(op.size, 10)+
			" exceeds the "+strconv.FormatInt(limit, 10)+"-byte limit")
	}
}

// splitRequestURI splits a request URI into its decoded path and raw query
// exactly as url.ParseRequestURI does. The common form, an absolute path
// with no escapes and no control bytes, is split in place.
func splitRequestURI(uri string) (path, query string, ok bool) {
	path, query, _ = strings.Cut(uri, "?")
	if strings.HasPrefix(path, "/") && strings.IndexByte(path, '%') < 0 && !hasCTL(uri) {
		return path, query, true
	}
	u, err := url.ParseRequestURI(uri)
	if err != nil {
		return "", "", false
	}
	return u.Path, u.RawQuery, true
}

func hasCTL(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < ' ' || s[i] == 0x7f {
			return true
		}
	}
	return false
}

// queryValue returns the first value of key in a raw query, by the rules
// of url.ParseQuery: pairs split on '&', keys and values are
// query-unescaped, and a pair holding ';' or a bad escape is skipped.
func queryValue(query, key string) string {
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// splitPath appends p's non-empty segments to dst.
func splitPath(dst []string, p string) []string {
	for p != "" {
		var s string
		s, p, _ = strings.Cut(p, "/")
		if s != "" {
			dst = append(dst, s)
		}
	}
	return dst
}

func parseBlobOp(op *wireOp, method string, segs []string) {
	switch {
	case len(segs) == 1 && method == "PUT":
		op.kind, op.container = opContainerCreate, segs[0]
	case len(segs) == 2:
		op.container, op.blob = segs[0], segs[1]
		switch method {
		case "PUT":
			op.kind = opBlobPut
		case "GET":
			op.kind = opBlobGet
		case "HEAD":
			op.kind = opBlobHead
		case "DELETE":
			op.kind = opBlobDelete
		default:
			op.reject("InvalidUri", "unsupported blob method "+method)
		}
	default:
		op.reject("InvalidUri", "blob path must be /<container>/<blob>")
	}
}

func parseTableOp(op *wireOp, method string, segs []string) {
	switch {
	case len(segs) == 2 && method == "PUT":
		op.kind, op.table = opTableCreate, segs[1]
	case len(segs) == 3 && method == "GET":
		op.kind, op.table, op.pk = opPartitionQuery, segs[1], segs[2]
	case len(segs) == 4:
		op.table, op.pk, op.rk = segs[1], segs[2], segs[3]
		switch method {
		case "POST":
			op.kind = opEntityInsert
		case "GET":
			op.kind = opEntityGet
		case "PUT":
			op.kind = opEntityUpdate
		case "DELETE":
			op.kind = opEntityDelete
		default:
			op.reject("InvalidUri", "unsupported entity method "+method)
		}
	default:
		op.reject("InvalidUri", "table path must be /table/<name>[/<pk>[/<rk>]]")
	}
}

func parseQueueOp(op *wireOp, method string, segs []string, query string) {
	switch {
	case len(segs) == 2 && method == "PUT":
		op.kind, op.queue = opQueueCreate, segs[1]
	case len(segs) == 3 && segs[2] == "messages":
		op.queue = segs[1]
		switch method {
		case "POST":
			op.kind = opMsgPut
		case "GET":
			if queryValue(query, "peekonly") == "true" {
				op.kind = opMsgPeek
			} else {
				op.kind = opMsgGet
				if s := queryValue(query, "visibilitytimeout"); s != "" {
					if sec, err := strconv.ParseFloat(s, 64); err == nil && sec > 0 {
						op.visibility = time.Duration(sec * float64(time.Second))
					}
				}
			}
		default:
			op.reject("InvalidUri", "unsupported messages method "+method)
		}
	case len(segs) == 4 && segs[2] == "messages" && method == "DELETE":
		op.kind, op.queue, op.receipt = opMsgDelete, segs[1], segs[3]
	default:
		op.reject("InvalidUri", "queue path must be /queue/<name>/messages[/<popreceipt>]")
	}
}

func parseControlOp(op *wireOp, method string, segs []string, query string) {
	if len(segs) == 2 && segs[1] == "faults" && method == "POST" {
		op.kind = opFaultsSet
		op.service = queryValue(query, "service")
		op.reset = queryValue(query, "reset") == "1"
		op.faults = reqpath.FaultConfig{
			ConnFailProb:    qFloat(query, "conn"),
			ServerBusyProb:  qFloat(query, "busy"),
			ReadFailProb:    qFloat(query, "read"),
			CorruptReadProb: qFloat(query, "corrupt"),
		}
		return
	}
	op.reject("InvalidUri", "unknown control path")
}

func qFloat(query, key string) float64 {
	v, err := strconv.ParseFloat(queryValue(query, key), 64)
	if err != nil {
		return 0
	}
	return v
}

// wireResult is the engine-side outcome of one request, rendered to HTTP
// (or hashed, in replay) by the caller. A non-nil err overrides everything
// else and renders as the XML error envelope via storerr.Class.
type wireResult struct {
	status   int
	location string   // Location header (mgmt 202s)
	reqID    string   // x-ms-request-id
	popRcpt  string   // x-ms-popreceipt
	ctype    []string // Content-Type header value, one of the shared ctype slices
	body     string
	bodySize int64 // stream this many zero bytes instead of body
	err      error
}

// render flattens a result to the trace observables shared by HTTP serving
// and replay hashing.
func (r *wireResult) render() (status int, code string, size int64) {
	if r.err != nil {
		st, c, _ := errorParts(r.err)
		return st, c, 0
	}
	if r.bodySize > 0 {
		return r.status, "", r.bodySize
	}
	return r.status, "", int64(len(r.body))
}

// Facade routes canonical ops into the cloud. All fields except the
// operations table are engine-side state, touched only from Gate-serialised
// closures; the operations table is mutex-guarded so poll handlers can read
// it without entering the engine.
type Facade struct {
	cloud *azure.Cloud
	gate  Gate
	rec   *Recorder

	// gateDone is the gate's Done channel, nil for a gate that cannot
	// close with requests in flight.
	gateDone <-chan struct{}

	free     []*conn
	nextConn int

	mgmt *mgmtState
}

// New builds a facade over cloud, serialised by gate. A nil gate is valid
// for Replay, which drives start directly.
func New(cloud *azure.Cloud, gate Gate) *Facade {
	f := &Facade{cloud: cloud, gate: gate, mgmt: newMgmtState()}
	if g, ok := gate.(closingGate); ok {
		f.gateDone = g.Done()
	}
	return f
}

// Cloud returns the wrapped cloud.
func (f *Facade) Cloud() *azure.Cloud { return f.cloud }

// SetRecorder installs an arrival recorder (nil to remove). Engine-side;
// install before serving.
func (f *Facade) SetRecorder(rec *Recorder) { f.rec = rec }

// start dispatches one canonical op under the gate's serialisation;
// deliver is called exactly once with the outcome, at the virtual instant
// the request completes.
func (f *Facade) start(op *wireOp, deliver func(wireResult)) {
	if f.rec != nil {
		f.rec.record(f.cloud.Engine.Now(), op)
	}
	if op.invalid != nil {
		deliver(wireResult{err: op.invalid})
		return
	}
	switch op.kind {
	case opContainerCreate:
		f.cloud.Blob.CreateContainer(op.container)
		deliver(wireResult{status: 201})
	case opTableCreate:
		f.cloud.Table.CreateTable(op.table)
		deliver(wireResult{status: 201})
	case opQueueCreate:
		f.cloud.Queue.CreateQueue(op.queue)
		deliver(wireResult{status: 201})
	case opFaultsSet:
		f.setFaults(op, deliver)
	case opMgmtDeploy, opMgmtAdd, opMgmtSuspend, opMgmtDelete:
		f.startMgmt(op, deliver)
	default:
		f.acquire().run(op, deliver)
	}
}

func (f *Facade) setFaults(op *wireOp, deliver func(wireResult)) {
	names := []string{op.service}
	if op.service == "" || op.service == "all" {
		names = azure.StorageServices
	}
	for _, name := range names {
		ok := false
		for _, s := range azure.StorageServices {
			if s == name {
				ok = true
			}
		}
		if !ok {
			deliver(wireResult{err: &wireError{status: 400, code: "InvalidInput", msg: "unknown service " + name}})
			return
		}
		pl := f.cloud.StoragePipeline(name)
		if op.reset {
			pl.ResetFaults()
		} else {
			pl.SetFaults(op.faults)
		}
	}
	deliver(wireResult{status: 204})
}

// acquire pops a pooled connection (LIFO, so reuse is deterministic under a
// recorded arrival order) or builds the next one.
func (f *Facade) acquire() *conn {
	if n := len(f.free); n > 0 {
		c := f.free[n-1]
		f.free = f.free[:n-1]
		return c
	}
	c := &conn{f: f, id: f.nextConn}
	f.nextConn++
	c.a.Bind(f.cloud.Engine, fmt.Sprintf("wire-conn-%d", c.id))
	c.dispatch = c.run2
	c.onBlobSize = c.blobSizeDone
	c.onBlobOK = c.blobOKDone
	c.onBlobErr = c.blobErrDone
	c.onEnt = c.entDone
	c.onEnts = c.entsDone
	c.onWrite = c.writeDone
	c.onAdd = c.addDone
	c.onPeek = c.peekDone
	c.onRecv = c.recvDone
	c.onQDel = c.qDelDone
	return c
}

func (f *Facade) release(c *conn) { f.free = append(f.free, c) }

// conn is one pooled wire connection: an actor plus lazily created flat
// request state against each storage service. The connection id keys the
// blob session's random streams, so the Nth connection ever created behaves
// identically across a recording and its replay.
type conn struct {
	f  *Facade
	id int
	a  sim.Actor

	sess   *blobsvc.Session
	tget   *tablesvc.GetFlat
	twrite *tablesvc.WriteFlat
	tquery *tablesvc.QueryFlat
	qreq   *queuesvc.ReqFlat

	op      *wireOp
	deliver func(wireResult)

	// cached continuations and completion callbacks (one-time allocations)
	dispatch   func()
	onBlobSize func(int64, error)
	onBlobOK   func(bool, error)
	onBlobErr  func(error)
	onEnt      func(*tablesvc.Entity, error)
	onEnts     func([]*tablesvc.Entity, error)
	onWrite    func(error)
	onAdd      func(uint64, error)
	onPeek     func(*queuesvc.Message, bool, error)
	onRecv     func(*queuesvc.Message, queuesvc.Receipt, bool, error)
	onQDel     func(error)
}

// The flat request objects are created on first use, keyed to this conn's
// cached callbacks, so a connection that only ever serves queues allocates
// no blob or table state.
func (c *conn) session() *blobsvc.Session {
	if c.sess == nil {
		c.sess = c.f.cloud.Blob.NewSession(c.id)
	}
	return c.sess
}

func (c *conn) getFlat() *tablesvc.GetFlat {
	if c.tget == nil {
		c.tget = c.f.cloud.Table.NewGetFlat(c.onEnt)
	}
	return c.tget
}

func (c *conn) writeFlat() *tablesvc.WriteFlat {
	if c.twrite == nil {
		c.twrite = c.f.cloud.Table.NewWriteFlat(c.onWrite)
	}
	return c.twrite
}

func (c *conn) queryFlat() *tablesvc.QueryFlat {
	if c.tquery == nil {
		c.tquery = c.f.cloud.Table.NewQueryFlat(c.onEnts)
	}
	return c.tquery
}

func (c *conn) queueReq() *queuesvc.ReqFlat {
	if c.qreq == nil {
		c.qreq = c.f.cloud.Queue.NewReqFlat()
	}
	return c.qreq
}

func (c *conn) run(op *wireOp, deliver func(wireResult)) {
	c.op, c.deliver = op, deliver
	c.a.Go(c.dispatch)
}

func (c *conn) run2() {
	op := c.op
	switch op.kind {
	case opBlobGet:
		c.session().GetFlat(&c.a, op.container, op.blob, c.onBlobSize)
	case opBlobPut:
		c.session().PutFlat(&c.a, op.container, op.blob, op.size, op.overwrite, c.onBlobSize)
	case opBlobHead:
		c.session().ExistsFlat(&c.a, op.container, op.blob, c.onBlobOK)
	case opBlobDelete:
		c.session().DeleteFlat(&c.a, op.container, op.blob, c.onBlobErr)
	case opEntityGet:
		c.getFlat().Begin(&c.a, op.table, op.pk, op.rk)
	case opEntityInsert:
		c.writeFlat().BeginInsert(&c.a, op.table, entityFor(op))
	case opEntityUpdate:
		c.writeFlat().BeginUpdate(&c.a, op.table, entityFor(op))
	case opEntityDelete:
		c.writeFlat().BeginDelete(&c.a, op.table, op.pk, op.rk)
	case opPartitionQuery:
		c.queryFlat().Begin(&c.a, op.table, op.pk, nil)
	case opMsgPut:
		q, ok := c.f.cloud.Queue.GetQueue(op.queue)
		if !ok {
			c.finishErr(storerr.New(storerr.CodeNotFound, "queue.Add", "queue "+op.queue))
			return
		}
		c.queueReq().BeginAdd(&c.a, q, op.body, nil, int(op.size), c.onAdd)
	case opMsgPeek:
		q, ok := c.f.cloud.Queue.GetQueue(op.queue)
		if !ok {
			c.finishErr(storerr.New(storerr.CodeNotFound, "queue.Peek", "queue "+op.queue))
			return
		}
		c.queueReq().BeginPeek(&c.a, q, c.onPeek)
	case opMsgGet:
		q, ok := c.f.cloud.Queue.GetQueue(op.queue)
		if !ok {
			c.finishErr(storerr.New(storerr.CodeNotFound, "queue.Receive", "queue "+op.queue))
			return
		}
		c.queueReq().BeginReceive(&c.a, q, op.visibility, c.onRecv)
	case opMsgDelete:
		q, ok := c.f.cloud.Queue.GetQueue(op.queue)
		if !ok {
			c.finishErr(storerr.New(storerr.CodeNotFound, "queue.Delete", "queue "+op.queue))
			return
		}
		rcpt, ok := queuesvc.ParseReceipt(op.receipt)
		if !ok {
			c.finish(wireResult{err: &wireError{status: 400, code: "InvalidInput", msg: "malformed pop receipt"}})
			return
		}
		c.queueReq().BeginDelete(&c.a, q, rcpt, c.onQDel)
	default:
		c.finish(wireResult{err: &wireError{status: 400, code: "InvalidUri", msg: "unroutable operation"}})
	}
}

func entityFor(op *wireOp) *tablesvc.Entity {
	return tablesvc.PaddedEntity(op.pk, op.rk, int(op.size))
}

// finish delivers the outcome, releases the connection and finishes the
// actor. Every request path on the connection ends here exactly once.
func (c *conn) finish(r wireResult) {
	deliver := c.deliver
	c.op, c.deliver = nil, nil
	c.f.release(c)
	c.a.Finish()
	deliver(r)
}

func (c *conn) finishErr(err error) { c.finish(wireResult{err: err}) }

// --- completion callbacks (cached once per conn) ---

func (c *conn) blobSizeDone(n int64, err error) {
	if err != nil {
		c.finishErr(err)
		return
	}
	if c.op.kind == opBlobGet {
		c.finish(wireResult{status: 200, ctype: ctypeOctet, bodySize: n})
		return
	}
	c.finish(wireResult{status: 201})
}

func (c *conn) blobOKDone(ok bool, err error) {
	if err != nil {
		c.finishErr(err)
		return
	}
	if !ok {
		c.finishErr(storerr.New(storerr.CodeNotFound, "blob.Exists", c.op.container+"/"+c.op.blob))
		return
	}
	c.finish(wireResult{status: 200})
}

func (c *conn) blobErrDone(err error) {
	if err != nil {
		c.finishErr(err)
		return
	}
	c.finish(wireResult{status: 202})
}

func (c *conn) entDone(e *tablesvc.Entity, err error) {
	if err != nil {
		c.finishErr(err)
		return
	}
	var buf [128]byte
	c.finish(wireResult{status: 200, ctype: ctypeJSON, body: string(appendEntityJSON(buf[:0], e))})
}

func (c *conn) entsDone(es []*tablesvc.Entity, err error) {
	if err != nil {
		c.finishErr(err)
		return
	}
	b := []byte{'['}
	for i, e := range es {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendEntityJSON(b, e)
	}
	b = append(b, ']')
	c.finish(wireResult{status: 200, ctype: ctypeJSON, body: string(b)})
}

func (c *conn) writeDone(err error) {
	if err != nil {
		c.finishErr(err)
		return
	}
	if c.op.kind == opEntityInsert {
		c.finish(wireResult{status: 201})
		return
	}
	c.finish(wireResult{status: 204})
}

func (c *conn) addDone(id uint64, err error) {
	if err != nil {
		c.finishErr(err)
		return
	}
	var buf [128]byte
	b := append(buf[:0], xmlHeader+"<QueueMessage><MessageId>"...)
	b = strconv.AppendUint(b, id, 10)
	b = append(b, "</MessageId></QueueMessage>"...)
	c.finish(wireResult{status: 201, ctype: ctypeXML, body: string(b)})
}

func (c *conn) peekDone(m *queuesvc.Message, ok bool, err error) {
	if err != nil {
		c.finishErr(err)
		return
	}
	if !ok {
		c.finishErr(storerr.New(storerr.CodeNotFound, "queue.Peek", "no visible messages"))
		return
	}
	c.finish(wireResult{status: 200, ctype: ctypeXML, body: messagesXML(m, "")})
}

func (c *conn) recvDone(m *queuesvc.Message, rcpt queuesvc.Receipt, ok bool, err error) {
	if err != nil {
		c.finishErr(err)
		return
	}
	if !ok {
		c.finishErr(storerr.New(storerr.CodeNotFound, "queue.Receive", "no visible messages"))
		return
	}
	c.finish(wireResult{status: 200, ctype: ctypeXML, popRcpt: rcpt.String(), body: messagesXML(m, rcpt.String())})
}

func (c *conn) qDelDone(err error) {
	if err != nil {
		c.finishErr(err)
		return
	}
	c.finish(wireResult{status: 204})
}

func appendEntityJSON(b []byte, e *tablesvc.Entity) []byte {
	b = append(b, `{"PartitionKey":`...)
	b = strconv.AppendQuote(b, e.PartitionKey)
	b = append(b, `,"RowKey":`...)
	b = strconv.AppendQuote(b, e.RowKey)
	b = append(b, `,"Size":`...)
	b = strconv.AppendInt(b, int64(e.Size()), 10)
	return append(b, '}')
}

func messagesXML(m *queuesvc.Message, popReceipt string) string {
	var b strings.Builder
	b.WriteString(xmlHeader)
	b.WriteString("<QueueMessagesList><QueueMessage><MessageId>")
	b.WriteString(strconv.FormatUint(m.ID, 10))
	b.WriteString("</MessageId><DequeueCount>")
	b.WriteString(strconv.Itoa(m.Dequeues))
	b.WriteString("</DequeueCount><MessageText>")
	xmlEscapeTo(&b, m.Body)
	b.WriteString("</MessageText>")
	if popReceipt != "" {
		b.WriteString("<PopReceipt>")
		b.WriteString(popReceipt)
		b.WriteString("</PopReceipt>")
	}
	b.WriteString("</QueueMessage></QueueMessagesList>")
	return b.String()
}
