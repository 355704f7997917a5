// Package queuesvc simulates the Windows Azure queue storage service as
// measured in Section 3.3 of the paper: a triple-replicated FIFO-ish message
// queue with Add, Peek, Receive and Delete operations, per-message
// visibility timeouts with automatic reappearance (the retry mechanism
// ModisAzure initially relied on), and contention behaviour calibrated to
// Fig. 3:
//
//   - Add and Receive need replica synchronisation; their aggregate
//     service-side throughput peaks at 64 concurrent clients
//     (569 and 424 ops/s respectively).
//   - Peek alters no state and keeps scaling: 3392 ops/s at 128 clients,
//     3878 at 192, still rising.
//   - Queue depth does not affect operation cost (verified from 200k to 2M
//     messages in the paper).
package queuesvc

import (
	"strconv"
	"strings"
	"time"

	"azureobs/internal/netsim"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/storage/station"
)

// Config parameterises the service; zero fields take calibrated defaults.
type Config struct {
	Add, Peek, Receive, DeleteMsg station.Config

	// DefaultVisibility is applied when Receive is called with zero
	// visibility; MaxVisibility is the service-imposed cap (2 h in the
	// paper's deployment, which forced ModisAzure to build its own task
	// monitor for longer tasks).
	DefaultVisibility time.Duration
	MaxVisibility     time.Duration

	// ClientWriteBW/ClientReadBW convert message payloads into transfer
	// time added to each op.
	ClientWriteBW netsim.Bandwidth
	ClientReadBW  netsim.Bandwidth

	// Fault injection.
	ConnFailProb   float64
	ServerBusyProb float64
}

// DefaultConfig returns the Fig. 3 calibration.
func DefaultConfig() Config {
	return Config{
		Add:       station.Config{S0: 56 * time.Millisecond, N0: 64, Gamma: 2, CV: 0.25},
		Peek:      station.Config{S0: 32 * time.Millisecond, N0: 260, Gamma: 2, CV: 0.25},
		Receive:   station.Config{S0: 75 * time.Millisecond, N0: 64, Gamma: 2, CV: 0.25},
		DeleteMsg: station.Config{S0: 40 * time.Millisecond, N0: 128, Gamma: 2, CV: 0.25},

		DefaultVisibility: 30 * time.Second,
		MaxVisibility:     2 * time.Hour,

		ClientWriteBW: 6.5 * netsim.MBps,
		ClientReadBW:  13 * netsim.MBps,
	}
}

// Message is one queued message. Body is carried verbatim; Size may exceed
// len(Body) to model padded payloads without allocating them.
//
// Ref is an in-process reference the adder hands to whoever receives the
// message — the campaign passes the task itself instead of formatting its ID
// into Body and parsing it back. It is never serialised: the service only
// stores it, and messages added over the wire carry nil.
type Message struct {
	ID       uint64
	Body     string
	Ref      any
	Size     int
	Inserted time.Duration
	Dequeues int

	visibleAt  time.Duration
	receipt    uint64
	prev, next *Message // links in the queue's arrival order, cleared on delete
}

// Receipt is the pop receipt required to delete a received message. It is
// invalidated if the message's visibility expires and another consumer
// receives it — the hazard that made ModisAzure's implicit-retry scheme
// unsafe for slow tasks.
type Receipt struct {
	MsgID uint64
	token uint64
}

// String encodes the receipt in its wire form, "<msgID>.<token>". The token
// is unexported in-process; the wire form round-trips it so REST clients can
// present pop receipts back to the facade.
func (r Receipt) String() string {
	return strconv.FormatUint(r.MsgID, 10) + "." + strconv.FormatUint(r.token, 10)
}

// ParseReceipt decodes a wire receipt produced by String.
func ParseReceipt(s string) (Receipt, bool) {
	dot := strings.IndexByte(s, '.')
	if dot <= 0 || dot == len(s)-1 {
		return Receipt{}, false
	}
	id, err1 := strconv.ParseUint(s[:dot], 10, 64)
	tok, err2 := strconv.ParseUint(s[dot+1:], 10, 64)
	if err1 != nil || err2 != nil {
		return Receipt{}, false
	}
	return Receipt{MsgID: id, token: tok}, true
}

// Received pairs a popped message with the receipt that authorises its
// deletion — the unit a successful Receive hands the consumer.
type Received struct {
	Msg     *Message
	Receipt Receipt
}

// Service is one queue storage account endpoint.
type Service struct {
	cfg Config
	eng *sim.Engine
	rng *simrand.RNG
	pl  *reqpath.Pipeline

	add, peek, receive, del *station.Station

	queues map[string]*Queue

	// calls is the free list of blocking-call states (see call).
	calls []*call
}

// Queue is one named message queue: its live messages in arrival order, an
// intrusive list threaded through Message.prev/next so appending allocates
// nothing beyond the message.
type Queue struct {
	name        string
	head, tail  *Message
	n           int
	byID        map[uint64]*Message
	nextID      uint64
	nextReceipt uint64
}

// New creates a queue service.
func New(eng *sim.Engine, rng *simrand.RNG, cfg Config) *Service {
	def := DefaultConfig()
	if cfg.Add.S0 == 0 {
		cfg.Add = def.Add
	}
	if cfg.Peek.S0 == 0 {
		cfg.Peek = def.Peek
	}
	if cfg.Receive.S0 == 0 {
		cfg.Receive = def.Receive
	}
	if cfg.DeleteMsg.S0 == 0 {
		cfg.DeleteMsg = def.DeleteMsg
	}
	if cfg.DefaultVisibility == 0 {
		cfg.DefaultVisibility = def.DefaultVisibility
	}
	if cfg.MaxVisibility == 0 {
		cfg.MaxVisibility = def.MaxVisibility
	}
	if cfg.ClientWriteBW == 0 {
		cfg.ClientWriteBW = def.ClientWriteBW
	}
	if cfg.ClientReadBW == 0 {
		cfg.ClientReadBW = def.ClientReadBW
	}
	r := rng.Fork("queuesvc")
	return &Service{
		cfg: cfg,
		eng: eng,
		rng: r,
		pl: reqpath.New(r, reqpath.Config{
			Service: "queue",
			Faults: reqpath.FaultConfig{
				ConnFailProb:   cfg.ConnFailProb,
				ServerBusyProb: cfg.ServerBusyProb,
			},
			UploadBW:   cfg.ClientWriteBW,
			DownloadBW: cfg.ClientReadBW,
		}),
		add:     station.New(cfg.Add, r.Fork("add")),
		peek:    station.New(cfg.Peek, r.Fork("peek")),
		receive: station.New(cfg.Receive, r.Fork("receive")),
		del:     station.New(cfg.DeleteMsg, r.Fork("delete")),
		queues:  make(map[string]*Queue),
	}
}

// Pipeline exposes the service's request pipeline for hook installation.
func (s *Service) Pipeline() *reqpath.Pipeline { return s.pl }

// CreateQueue makes a queue (idempotent) and returns it.
func (s *Service) CreateQueue(name string) *Queue {
	q, ok := s.queues[name]
	if !ok {
		q = &Queue{name: name, byID: make(map[uint64]*Message)}
		s.queues[name] = q
	}
	return q
}

// GetQueue returns an existing queue.
func (s *Service) GetQueue(name string) (*Queue, bool) {
	q, ok := s.queues[name]
	return q, ok
}

// Len returns the number of live (undeleted) messages, visible or not.
func (q *Queue) Len() int { return q.n }

// Prefill inserts n size-byte messages instantly — a test/bench helper for
// the paper's queue-depth invariance experiment (200k → 2M messages).
func (q *Queue) Prefill(n, size int) {
	for i := 0; i < n; i++ {
		q.nextID++
		q.push(&Message{ID: q.nextID, Size: size})
	}
}

// push appends m to the queue.
func (q *Queue) push(m *Message) {
	m.prev = q.tail
	if q.tail != nil {
		q.tail.next = m
	} else {
		q.head = m
	}
	q.tail = m
	q.n++
	q.byID[m.ID] = m
}

// remove deletes m from the queue. m keeps no links, so a caller still
// holding it cannot reach the live queue through it.
func (q *Queue) remove(m *Message) {
	if m.prev != nil {
		m.prev.next = m.next
	} else {
		q.head = m.next
	}
	if m.next != nil {
		m.next.prev = m.prev
	} else {
		q.tail = m.prev
	}
	m.prev, m.next = nil, nil
	q.n--
	delete(q.byID, m.ID)
}

// firstVisible returns the first live visible message at the current time.
func (q *Queue) firstVisible(now time.Duration) *Message {
	for m := q.head; m != nil; m = m.next {
		if m.visibleAt <= now {
			return m
		}
	}
	return nil
}

// call is one blocking request: a pooled ReqFlat plus the result its
// completion delivers.
type call struct {
	svc  *Service
	r    ReqFlat
	id   uint64
	m    *Message
	rcpt Receipt
	ok   bool
	err  error

	onAdd  func(uint64, error)
	onPeek func(*Message, bool, error)
	onRecv func(*Message, Receipt, bool, error)
	onDel  func(error)
}

// call takes a blocking-call state from the service's free list.
func (s *Service) call() *call {
	if n := len(s.calls); n > 0 {
		c := s.calls[n-1]
		s.calls = s.calls[:n-1]
		return c
	}
	c := &call{svc: s}
	c.r.Init(s)
	c.onAdd = func(id uint64, err error) { c.id, c.err = id, err }
	c.onPeek = func(m *Message, ok bool, err error) { c.m, c.ok, c.err = m, ok, err }
	c.onRecv = func(m *Message, rcpt Receipt, ok bool, err error) { c.m, c.rcpt, c.ok, c.err = m, rcpt, ok, err }
	c.onDel = func(err error) { c.err = err }
	return c
}

// release returns the call to the free list.
func (c *call) release() {
	c.m, c.err = nil, nil
	c.svc.calls = append(c.svc.calls, c)
}

// Add appends a message with the given body, padded to size bytes.
func (s *Service) Add(p *sim.Proc, q *Queue, body string, size int) (uint64, error) {
	c := s.call()
	p.Drive(func(a *sim.Actor) { c.r.BeginAdd(a, q, body, nil, size, c.onAdd) })
	id, err := c.id, c.err
	c.release()
	return id, err
}

// Peek returns the first visible message without changing queue state, or
// ok=false when the queue has none.
func (s *Service) Peek(p *sim.Proc, q *Queue) (*Message, bool, error) {
	c := s.call()
	p.Drive(func(a *sim.Actor) { c.r.BeginPeek(a, q, c.onPeek) })
	m, ok, err := c.m, c.ok, c.err
	c.release()
	return m, ok, err
}

// Receive pops the first visible message, hiding it for the visibility
// window (see ReqFlat.BeginReceive).
func (s *Service) Receive(p *sim.Proc, q *Queue, visibility time.Duration) (*Message, Receipt, bool, error) {
	c := s.call()
	p.Drive(func(a *sim.Actor) { c.r.BeginReceive(a, q, visibility, c.onRecv) })
	m, rcpt, ok, err := c.m, c.rcpt, c.ok, c.err
	c.release()
	return m, rcpt, ok, err
}

// Delete removes a received message (see ReqFlat.BeginDelete).
func (s *Service) Delete(p *sim.Proc, q *Queue, r Receipt) error {
	c := s.call()
	p.Drive(func(a *sim.Actor) { c.r.BeginDelete(a, q, r, c.onDel) })
	err := c.err
	c.release()
	return err
}
