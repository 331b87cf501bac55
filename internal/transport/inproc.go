package transport

import (
	"context"
	"sync"
	"sync/atomic"

	"meerkat/internal/clock"
	"meerkat/internal/message"
	"meerkat/internal/topo"
)

// A server endpoint's receive ring, the analogue of a NIC's (a send to a full
// ring is dropped, as a NIC would drop it), and the burst its delivery
// goroutine drains per wakeup, as a NIC ring is polled in bursts.
const (
	queueDepth = 8192
	burst      = 32
)

// InprocConfig tunes the in-process network.
type InprocConfig struct {
	// Clock is the clock of the deployment this network carries (see
	// Network.Clock). Nil means the machine's.
	Clock clock.Clock
}

// InprocStats is a point-in-time aggregate of the network's counters.
type InprocStats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64 // full queues + unbound destinations
}

// inprocCounters is one endpoint's share of InprocStats, counted by whoever
// sends from that endpoint. The padding on both sides keeps the counters off
// every cache line that holds anything else — in particular the neighbouring
// endpoint fields every sender reads.
type inprocCounters struct {
	_                        [64]byte
	sent, delivered, dropped atomic.Uint64
	_                        [64 - 3*8]byte
}

// endpointTable is the immutable address → endpoint map the send path reads.
type endpointTable map[message.Addr]*inprocEndpoint

// Inproc is an in-process Network, the stand-in for the paper's eRPC
// kernel-bypass stack: sends are direct hand-offs with no serialization. The
// address plan decides delivery: a server endpoint owns a ring drained by a
// goroutine of its own, modelling one server thread polling one NIC queue; a
// client endpoint (topo.ClientNodeBase and up) has neither, and its handler
// runs on the sender's goroutine. There is no shared mutable state on the
// send path — per the paper's zero-coordination discipline, concurrent
// senders contend only on the destination: the endpoint table is published
// copy-on-write (Listen and Close, both cold, copy it under mu; a send is one
// atomic load), and every endpoint counts into its own cache line, summed by
// Stats.
type Inproc struct {
	cfg InprocConfig

	table atomic.Pointer[endpointTable]

	mu     sync.Mutex // guards table writes, closed, final
	closed bool
	final  InprocStats // counters folded in from closed endpoints
}

// NewInproc returns an in-process network with the given configuration.
func NewInproc(cfg InprocConfig) *Inproc {
	cfg.Clock = clock.Or(cfg.Clock)
	n := &Inproc{cfg: cfg}
	n.table.Store(&endpointTable{})
	return n
}

// Clock implements Network.
func (n *Inproc) Clock() clock.Clock { return n.cfg.Clock }

// Stats sums the per-endpoint counters (plus those of endpoints already
// closed), so the aggregation cost lands on the scrape path, not the send
// path.
func (n *Inproc) Stats() InprocStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.final
	for _, ep := range *n.table.Load() {
		s.add(&ep.stats)
	}
	return s
}

func (s *InprocStats) add(c *inprocCounters) {
	s.Sent += c.sent.Load()
	s.Delivered += c.delivered.Load()
	s.Dropped += c.dropped.Load()
}

// setEndpoint publishes a copy of the endpoint table with addr bound to ep
// (nil unbinds). Callers hold n.mu.
func (n *Inproc) setEndpoint(addr message.Addr, ep *inprocEndpoint) {
	old := *n.table.Load()
	next := make(endpointTable, len(old)+1)
	for a, e := range old {
		next[a] = e
	}
	if ep == nil {
		delete(next, addr)
	} else {
		next[addr] = ep
	}
	n.table.Store(&next)
}

// Listen implements Network.
func (n *Inproc) Listen(addr message.Addr, h Handler) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := (*n.table.Load())[addr]; ok {
		return nil, ErrAddrInUse
	}
	ep := &inprocEndpoint{net: n, addr: addr, h: h}
	if addr.Node < topo.ClientNodeBase {
		ep.ch = make(chan *message.Message, queueDepth)
		ep.g = clock.NewGroup(n.cfg.Clock)
		ep.g.Go(ep.run)
	}
	n.setEndpoint(addr, ep)
	return ep, nil
}

// Close implements Network.
func (n *Inproc) Close() error {
	n.mu.Lock()
	eps := *n.table.Load()
	n.closed = true
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

// dispatch routes m from the sending endpoint to dst: count, look up, then
// deliver or drop. An unbound destination or a full ring drops silently, as a
// NIC would; every other fault is internal/faultnet's to inject. Every count
// goes to the sender's own counters, so concurrent senders share nothing but
// the destination. The network owns m from here on: it reaches dst's handler
// or is released.
func (n *Inproc) dispatch(src *inprocEndpoint, dst message.Addr, m *message.Message) {
	src.stats.sent.Add(1)
	if ep, ok := (*n.table.Load())[dst]; ok {
		ep.enqueue(src, m)
	} else {
		src.drop(m)
	}
}

// Mix64 is the splitmix64 finalizer: the whitening step of SplitMix64 and of
// the fault injector's per-link streams.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SplitMix64 is a tiny single-goroutine PRNG for replica/core selection on
// the coordinator hot path: no lock, no heap allocation, and a deterministic
// sequence per seed. The zero value is a valid seed.
type SplitMix64 struct {
	state uint64
}

// SeedSplitMix64 returns a SplitMix64 whose stream is derived from seed via
// the splitmix64 finalizer.
func SeedSplitMix64(seed uint64) SplitMix64 {
	return SplitMix64{state: Mix64(seed)}
}

// Uint64 returns the next draw.
func (r *SplitMix64) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return Mix64(r.state)
}

// Intn returns a draw in [0, n). n must be positive.
func (r *SplitMix64) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}

type inprocEndpoint struct {
	net    *Inproc
	addr   message.Addr
	h      Handler
	ch     chan *message.Message // a server's ring; nil for a client
	g      *clock.Group          // a server's delivery goroutine, which Close joins
	closed atomic.Bool
	stats  inprocCounters // what this endpoint sent, and what became of it
}

// run is a server endpoint's delivery loop: one blocking receive per wakeup,
// then a non-blocking drain of up to burst-1 more queued messages. Bursts are
// handled without bouncing through the scheduler per message — the software
// analogue of NIC-ring burst polling.
func (ep *inprocEndpoint) run(ctx context.Context) {
	done := ctx.Done()
	for {
		select {
		case <-done:
			return
		case m := <-ep.ch:
			ep.h(m)
		drain:
			for i := 1; i < burst; i++ {
				select {
				case m := <-ep.ch:
					ep.h(m)
				default:
					break drain
				}
			}
		}
	}
}

// enqueue hands m, sent by src, to ep: a client's handler runs here, on the
// sender's goroutine; a server's ring takes it for the delivery goroutine.
func (ep *inprocEndpoint) enqueue(src *inprocEndpoint, m *message.Message) {
	switch {
	case ep.closed.Load():
		src.drop(m)
	case ep.ch == nil:
		src.stats.delivered.Add(1)
		ep.h(m)
	default:
		select {
		case ep.ch <- m:
			src.stats.delivered.Add(1)
		default:
			src.drop(m) // receive ring overflow
		}
	}
}

// drop counts and recycles a message ep sent that will reach no handler.
func (ep *inprocEndpoint) drop(m *message.Message) {
	ep.stats.dropped.Add(1)
	message.ReleaseMessage(m)
}

// Addr implements Endpoint.
func (ep *inprocEndpoint) Addr() message.Addr { return ep.addr }

// Send implements Endpoint.
func (ep *inprocEndpoint) Send(dst message.Addr, m *message.Message) error {
	if ep.closed.Load() {
		message.ReleaseMessage(m)
		return ErrClosed
	}
	m.Src = ep.addr
	ep.net.dispatch(ep, dst, m)
	return nil
}

// SendBatch implements Endpoint. A send here is already a direct hand-off
// with no per-message boundary cost to amortize, so the batch maps onto N
// dispatches; a server's delivery goroutine still drains bursts of messages
// per wakeup (see run), which is where inproc's batching lives.
func (ep *inprocEndpoint) SendBatch(batch []Outgoing) error {
	if ep.closed.Load() {
		releaseBatch(batch)
		return ErrClosed
	}
	for i := range batch {
		batch[i].M.Src = ep.addr
		ep.net.dispatch(ep, batch[i].Dst, batch[i].M)
	}
	return nil
}

// releaseBatch recycles the messages of a batch a closed endpoint was handed:
// a send owns its message, delivered or not.
func releaseBatch(batch []Outgoing) {
	for i := range batch {
		message.ReleaseMessage(batch[i].M)
	}
}

// Flush implements Endpoint. Inproc buffers nothing on the send side.
func (ep *inprocEndpoint) Flush() error { return nil }

// Close implements Endpoint. A server endpoint's returns once the delivery
// goroutine has: the handler is not running and never will again, so a
// handler must not close its own endpoint. A client endpoint's joins nothing:
// see Endpoint.Close.
func (ep *inprocEndpoint) Close() error {
	ep.closed.Store(true)
	if ep.g != nil {
		ep.g.Close()
	}
	n := ep.net
	n.mu.Lock()
	if (*n.table.Load())[ep.addr] == ep {
		n.setEndpoint(ep.addr, nil)
		n.final.add(&ep.stats)
	}
	n.mu.Unlock()
	return nil
}

// Inbox is a Handler that buffers inbound messages into a channel, for
// callers (clients, coordinators) that consume replies synchronously. A
// message taken from C belongs to the taker, who may release it once read;
// the Inbox releases what it discards itself.
type Inbox struct {
	C chan *message.Message
}

// NewInbox returns an Inbox with the given buffer depth.
func NewInbox(depth int) *Inbox {
	if depth <= 0 {
		depth = 256
	}
	return &Inbox{C: make(chan *message.Message, depth)}
}

// Handle implements Handler. It never blocks and is safe to call from any
// number of senders at once, as a client's handler must be (see Handler).
// Messages beyond the buffer are dropped, which the retry layer above absorbs.
func (in *Inbox) Handle(m *message.Message) {
	select {
	case in.C <- m:
	default:
		message.ReleaseMessage(m)
	}
}

// Drain discards buffered messages without blocking, so a fresh request phase
// does not mistake a stale reply (from a timed-out earlier attempt) for its
// own.
func (in *Inbox) Drain() {
	for {
		select {
		case m := <-in.C:
			message.ReleaseMessage(m)
		default:
			return
		}
	}
}
