package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"meerkat/internal/clock"
	"meerkat/internal/message"
	"meerkat/internal/topo"
)

// Batching geometry shared by the Linux mmsg path and the portable fallback.
const (
	// sendRing is the maximum number of datagrams one sendmmsg moves; it
	// bounds the endpoint's pending-send buffer.
	sendRing = 32
	// recvRing is the number of datagrams one recvmmsg can drain.
	recvRing = 16
	// maxDatagram is the largest datagram the read loop accepts, and the
	// largest encode buffer a send slot retains across flushes.
	maxDatagram = 64 << 10
)

// Typed port-map errors, so deployments can fail loudly at configuration
// time instead of binding (or sending to) the wrong socket.
var (
	// ErrPortRange means an address maps outside the 16-bit UDP port range.
	ErrPortRange = errors.New("transport: UDP port out of range")
	// ErrPortCollision means two distinct addresses of the plan map onto
	// the same UDP port (e.g. a replica node id reaching into the epoch-
	// change slot range, or a stride too small for a node's endpoints).
	ErrPortCollision = errors.New("transport: UDP port map collision")
)

// UDP is a Network over real UDP sockets. Each (node, core) endpoint binds
// its own port — one socket per server thread, the software analogue of the
// paper's per-thread NIC send/receive queues steered by port number — and
// every message pays full binary serialization plus kernel socket costs.
// This is the stand-in for the paper's traditional Linux UDP stack baseline.
//
// Sends are batched: an endpoint buffers outgoing datagrams in a small ring
// and hands them to the kernel in one sendmmsg (Linux amd64/arm64; a
// WriteToUDP loop elsewhere), and the read loop drains inbound bursts with
// one recvmmsg into a ring of preallocated buffers. While an inbound burst
// is being delivered the endpoint is "corked": replies the handlers emit
// pile into the send ring and leave in a single syscall when the burst ends.
type UDP struct {
	ip       net.IP // parsed once; per-send parsing is pure overhead
	basePort int
	stride   int // ports per node
	clk      clock.Clock

	// addrs caches resolved *net.UDPAddr per destination so the send path
	// does not rebuild (and re-allocate) the same sockaddr per message.
	// Entries are immutable once stored.
	addrs sync.Map // message.Addr -> *net.UDPAddr

	plat udpPlat // per-platform shared state (raw sockaddr cache on Linux)

	mu     sync.Mutex
	eps    []*udpEndpoint
	ports  map[int]message.Addr // bound port -> owning address
	closed bool
	final  UDPStats // counters folded in from endpoints at network Close
}

// NewUDP returns a UDP network on host (usually "127.0.0.1"). The port for
// address (node, core) is basePort + topo.Slot(node)*stride + core, so all
// processes sharing the same parameters agree on the port map; a deployment's
// stride is its topology's EndpointsPerNode.
func NewUDP(host string, basePort, stride int) *UDP {
	if stride <= 0 {
		stride = 128
	}
	return &UDP{
		ip:       net.ParseIP(host),
		basePort: basePort,
		stride:   stride,
		ports:    make(map[int]message.Addr),
		clk:      clock.NewReal(),
	}
}

// SetClock makes clk the clock of the deployment this network carries (see
// Network.Clock) in place of the machine's. Must be called before Listen.
func (n *UDP) SetClock(clk clock.Clock) { n.clk = clk }

// Clock implements Network.
func (n *UDP) Clock() clock.Clock { return n.clk }

// udpAddr returns the cached sockaddr for dst, resolving it on first use.
func (n *UDP) udpAddr(dst message.Addr) *net.UDPAddr {
	if a, ok := n.addrs.Load(dst); ok {
		return a.(*net.UDPAddr)
	}
	a, _ := n.addrs.LoadOrStore(dst, &net.UDPAddr{IP: n.ip, Port: n.Port(dst)})
	return a.(*net.UDPAddr)
}

// Port returns the UDP port assigned to addr: the address plan's dense slot
// for the node (topo.Slot), stride ports apart, plus the core.
func (n *UDP) Port(addr message.Addr) int {
	return n.basePort + topo.Slot(addr.Node)*n.stride + int(addr.Core)
}

// checkPort validates that addr's port lands inside the 16-bit range and
// returns it. It exists so Listen can fail with a typed error instead of
// binding port 70000 % 65536 or whatever the kernel would make of it.
func (n *UDP) checkPort(addr message.Addr) (int, error) {
	port := n.Port(addr)
	if port < 1 || port > 65535 {
		return 0, fmt.Errorf("%w: addr %+v maps to port %d (basePort=%d stride=%d)",
			ErrPortRange, addr, port, n.basePort, n.stride)
	}
	return port, nil
}

// ValidatePortMap statically checks that deployment t with up to clients
// clients maps every address of the plan (see internal/topo) onto a distinct
// in-range port. It returns ErrPortCollision when the node ranges overlap or
// the stride cannot hold a node's endpoints — a replica's backup coordinator
// sits one past its server threads — and ErrPortRange when the highest client
// overflows 16 bits, so misconfigurations surface before the first socket
// binds.
func (n *UDP) ValidatePortMap(t topo.Topology, clients int) error {
	if err := t.CheckSlots(); err != nil {
		return fmt.Errorf("%w: %v", ErrPortCollision, err)
	}
	if need := t.EndpointsPerNode(); need > n.stride {
		return fmt.Errorf("%w: a node binds %d endpoints, %d ports apart", ErrPortCollision, need, n.stride)
	}
	// In int arithmetic: a client budget past 32 bits must not wrap the node id.
	if port := n.Port(t.ClientAddr(0)) + (max(clients, 1)-1)*n.stride; port > 65535 {
		return fmt.Errorf("%w: %d clients at stride %d reach port %d (basePort=%d)",
			ErrPortRange, clients, n.stride, port, n.basePort)
	}
	return nil
}

// Listen implements Network.
func (n *UDP) Listen(addr message.Addr, h Handler) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if int(addr.Core) >= n.stride {
		return nil, fmt.Errorf("%w: core %d of addr %+v reaches the next node's ports (stride=%d)",
			ErrPortCollision, addr.Core, addr, n.stride)
	}
	port, err := n.checkPort(addr)
	if err != nil {
		return nil, err
	}
	if prev, ok := n.ports[port]; ok {
		if prev == addr {
			return nil, ErrAddrInUse
		}
		return nil, fmt.Errorf("%w: addr %+v and addr %+v both map to port %d",
			ErrPortCollision, prev, addr, port)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{
		IP:   n.ip,
		Port: port,
	})
	if err != nil {
		return nil, err
	}
	ep := &udpEndpoint{net: n, addr: addr, conn: conn, h: h, port: port, g: clock.NewGroup(n.clk)}
	ep.pend = make([]sendSlot, 0, sendRing)
	ep.wireInit()
	ep.g.Go(func(context.Context) { ep.readLoop() }) // ends when Close closes the socket
	n.eps = append(n.eps, ep)
	n.ports[port] = addr
	return ep, nil
}

// releasePort frees ep's port slot so a restarted node (replica recovery)
// can rebind the same address.
func (n *UDP) releasePort(ep *udpEndpoint) {
	n.mu.Lock()
	if n.ports[ep.port] == ep.addr {
		delete(n.ports, ep.port)
	}
	n.mu.Unlock()
}

// Close implements Network. Endpoint counters are folded into a final
// snapshot before the endpoint list is dropped, so Stats stays truthful for
// post-run scrapes.
func (n *UDP) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	eps := n.eps
	n.closed = true
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	// Snapshot after closing so final flushes are counted.
	var s UDPStats
	for _, ep := range eps {
		s.add(ep)
	}
	n.mu.Lock()
	n.final = s
	n.eps = nil
	n.mu.Unlock()
	return nil
}

// UDPStats is a point-in-time aggregate of socket-level counters across all
// endpoints of a UDP network.
type UDPStats struct {
	Sent      uint64 // datagrams handed to the kernel
	Delivered uint64 // datagrams decoded and handed to handlers
	Dropped   uint64 // local send errors + corrupt inbound datagrams
	SendCalls uint64 // send syscalls (sendmmsg or per-datagram sendto)
	RecvCalls uint64 // receive syscalls (recvmmsg or per-datagram recvfrom)
}

// Syscalls returns the total number of socket syscalls the network issued.
func (s UDPStats) Syscalls() uint64 { return s.SendCalls + s.RecvCalls }

// DatagramsPerSend returns the average number of datagrams each send syscall
// moved — the batching factor the mmsg path achieves.
func (s UDPStats) DatagramsPerSend() float64 {
	if s.SendCalls == 0 {
		return 0
	}
	return float64(s.Sent) / float64(s.SendCalls)
}

// Sub returns s - prev field-wise, for interval measurements.
func (s UDPStats) Sub(prev UDPStats) UDPStats {
	return UDPStats{
		Sent:      s.Sent - prev.Sent,
		Delivered: s.Delivered - prev.Delivered,
		Dropped:   s.Dropped - prev.Dropped,
		SendCalls: s.SendCalls - prev.SendCalls,
		RecvCalls: s.RecvCalls - prev.RecvCalls,
	}
}

func (s *UDPStats) add(ep *udpEndpoint) {
	s.Sent += ep.sent.Load()
	s.Delivered += ep.delivered.Load()
	s.Dropped += ep.dropped.Load()
	s.SendCalls += ep.sendCalls.Load()
	s.RecvCalls += ep.recvCalls.Load()
}

// Stats sums the per-endpoint counters (plus the final snapshot of any
// already-closed network). Endpoints count into their own cache lines (each
// endpoint is its own heap object owned by one sender and one read loop), so
// the aggregation cost lands here, on the scrape path.
func (n *UDP) Stats() UDPStats {
	n.mu.Lock()
	s := n.final
	eps := n.eps
	n.mu.Unlock()
	for _, ep := range eps {
		s.add(ep)
	}
	return s
}

// sendSlot is one buffered outgoing datagram: the destination plus the
// encoded bytes. Slots keep their byte buffers across flushes, so the
// steady-state batched send path allocates nothing.
type sendSlot struct {
	dst message.Addr
	buf []byte
}

type udpEndpoint struct {
	net    *UDP
	addr   message.Addr
	conn   *net.UDPConn
	h      Handler
	port   int
	g      *clock.Group // the read loop's; Close joins it
	closed atomic.Bool

	sent      atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	sendCalls atomic.Uint64
	recvCalls atomic.Uint64

	// mu guards the pending-send ring. The read loop corks the endpoint
	// while it delivers an inbound burst, so replies emitted by the
	// handlers coalesce into one flush when the burst ends.
	mu     sync.Mutex
	pend   []sendSlot
	corked bool

	wire udpWire // per-platform mmsg state; zero value = fallback path
}

// Addr implements Endpoint.
func (ep *udpEndpoint) Addr() message.Addr { return ep.addr }

// Send implements Endpoint. The message is serialized into a ring slot
// immediately; unless the endpoint is corked the datagram goes to the kernel
// before Send returns.
func (ep *udpEndpoint) Send(dst message.Addr, m *message.Message) error {
	if ep.closed.Load() {
		message.ReleaseMessage(m)
		return ErrClosed
	}
	m.Src = ep.addr
	ep.mu.Lock()
	ep.bufferLocked(dst, m)
	err := ep.sendPendingLocked()
	ep.mu.Unlock()
	return err
}

// SendBatch implements Endpoint: every message is serialized under one lock
// acquisition and the whole batch leaves in as few syscalls as the ring
// allows (one, for batches up to sendRing).
func (ep *udpEndpoint) SendBatch(batch []Outgoing) error {
	if ep.closed.Load() {
		releaseBatch(batch)
		return ErrClosed
	}
	ep.mu.Lock()
	for i := range batch {
		batch[i].M.Src = ep.addr
		ep.bufferLocked(batch[i].Dst, batch[i].M)
	}
	err := ep.sendPendingLocked()
	ep.mu.Unlock()
	return err
}

// Flush implements Endpoint: force out anything buffered, regardless of cork
// state.
func (ep *udpEndpoint) Flush() error {
	if ep.closed.Load() {
		return ErrClosed
	}
	ep.mu.Lock()
	err := ep.flushLocked()
	ep.mu.Unlock()
	return err
}

// bufferLocked serializes m into the next ring slot, flushing first if the
// ring is full, and recycles m: once encoded, the struct has no further
// reader. Callers hold ep.mu.
func (ep *udpEndpoint) bufferLocked(dst message.Addr, m *message.Message) {
	if len(ep.pend) == sendRing {
		ep.flushLocked()
	}
	i := len(ep.pend)
	ep.pend = ep.pend[:i+1]
	s := &ep.pend[i]
	s.dst = dst
	s.buf = message.Encode(s.buf[:0], m)
	message.ReleaseMessage(m)
}

// sendPendingLocked flushes the ring unless a cork holds it open (an inbound
// burst is being delivered; the uncork flushes). Callers hold ep.mu.
func (ep *udpEndpoint) sendPendingLocked() error {
	if ep.corked {
		return nil
	}
	return ep.flushLocked()
}

// flushLocked hands every pending datagram to the kernel and resets the
// ring, trimming any slot buffer an oversized message grew. Callers hold
// ep.mu.
func (ep *udpEndpoint) flushLocked() error {
	if len(ep.pend) == 0 {
		return nil
	}
	err := ep.writeWire(ep.pend)
	for i := range ep.pend {
		if cap(ep.pend[i].buf) > maxDatagram {
			ep.pend[i].buf = nil
		}
	}
	ep.pend = ep.pend[:0]
	return err
}

// cork holds the send ring open: Sends buffer but do not flush. The read
// loop corks around each inbound burst so handler replies share syscalls.
func (ep *udpEndpoint) cork() {
	ep.mu.Lock()
	ep.corked = true
	ep.mu.Unlock()
}

// uncork releases the ring and flushes whatever the burst's handlers
// buffered.
func (ep *udpEndpoint) uncork() {
	ep.mu.Lock()
	ep.corked = false
	ep.sendPendingLocked()
	ep.mu.Unlock()
}

// writeFallback is the portable one-syscall-per-datagram wire: exactly the
// pre-batching behavior, used where mmsg is unavailable.
func (ep *udpEndpoint) writeFallback(slots []sendSlot) error {
	var firstErr error
	for i := range slots {
		_, err := ep.conn.WriteToUDP(slots[i].buf, ep.net.udpAddr(slots[i].dst))
		ep.sendCalls.Add(1)
		if err != nil {
			// UDP is best-effort end to end; surface only local socket
			// faults.
			ep.dropped.Add(1)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ep.sent.Add(1)
	}
	return firstErr
}

// readLoopFallback is the portable receive path: one recvfrom per datagram.
// The cork still wraps each delivery so a handler that fans out several
// replies hands them to the kernel in one batch on the mmsg path, and in
// order on this one.
func (ep *udpEndpoint) readLoopFallback() {
	buf := make([]byte, maxDatagram)
	for {
		nr, _, err := ep.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		ep.recvCalls.Add(1)
		ep.cork()
		ep.deliver(buf[:nr])
		ep.uncork()
	}
}

// deliver decodes one datagram into a pooled message and hands it to the
// handler, which owns it from then on (see message.ReleaseMessage). The message
// keeps a copy of the datagram — its arena, which the decoded keys and values
// are cut from — so the ring buffer is free again at once and nothing but a
// transaction's set arrays is allocated.
func (ep *udpEndpoint) deliver(datagram []byte) {
	m := message.AcquireMessage()
	if err := message.DecodeInto(m, datagram); err != nil {
		message.ReleaseMessage(m)
		ep.dropped.Add(1) // corrupt datagram: drop, like any UDP consumer
		return
	}
	ep.delivered.Add(1)
	ep.h(m)
}

// Close implements Endpoint: flush what is buffered, close the socket — which
// ends the read loop — and join it.
func (ep *udpEndpoint) Close() error {
	if ep.closed.Swap(true) {
		return nil
	}
	ep.mu.Lock()
	ep.flushLocked()
	ep.mu.Unlock()
	ep.net.releasePort(ep)
	err := ep.conn.Close()
	ep.g.Close()
	return err
}
