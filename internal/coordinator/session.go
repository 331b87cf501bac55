package coordinator

import (
	"fmt"

	"meerkat/internal/message"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

// Worker-demux bit layout. A session multiplexes several logical clients
// ("workers") over one endpoint, so every reply must carry enough to
// route it back to the worker whose transaction it answers. Two existing
// fields already round-trip through the replicas untouched:
//
//   - transaction ids: replies to validate/accept/commit/coord-change carry
//     the TxnID, whose ClientID is the issuing worker's id. Worker i runs as
//     client (base | i<<workerIDShift), so the index is recoverable from the
//     id's high bits without widening any message.
//   - read sequence numbers: multi-read replies echo Seq. Worker i
//     seeds its read Seq at i<<readSeqShift, leaving 2^48 sequence numbers per
//     worker — centuries of reads — before streams could collide.
const (
	workerIDShift = 32 // worker index lives in ClientID bits [32, 48)
	readSeqShift  = 48 // worker index lives in read Seq bits [48, 64)

	// MaxWindow bounds a session's pipeline width: worker indices must fit
	// the bit fields above (and 2^16 in-flight transactions per socket is
	// far past any syscall-amortization gain).
	MaxWindow = 1 << 16
)

// Session multiplexes up to `window` concurrently outstanding transactions
// over ONE client socket. A plain Coordinator is stop-and-wait: one
// transaction in flight per endpoint, so on the real-UDP transport the wire
// idles between round trips and every message costs its own syscalls. A
// Session binds the one address a single coordinator would and hands the
// endpoint to `window` workers — each a full Coordinator driven by its
// caller's goroutine — demultiplexing replies onto each worker's one mailbox
// by the worker index carried in transaction ids and read sequence numbers.
// Combined with the transport's batched sends, the pipelined workers fill
// sendmmsg/recvmmsg rings instead of moving one datagram per syscall.
//
// Each worker is single-goroutine exactly like a plain Coordinator; the
// Session itself has no locks on any hot path (the routing handlers read
// immutable state).
type Session struct {
	cfg     Config
	ep      transport.Endpoint
	workers []*Coordinator
}

// NewSession binds one endpoint on cfg.Net and builds window pipelined
// workers over it. cfg.ClientID must leave the worker-index bits clear (ids
// below 1<<32, which every id the public API hands out satisfies). Worker i
// operates as client id cfg.ClientID | i<<32, with derived seeds; cfg.Obs,
// when set, is shared by all workers (obs.Shard methods are atomic).
func NewSession(cfg Config, window int) (*Session, error) {
	cfg.fill()
	if !cfg.Topo.Validate() || cfg.ShardMap == nil {
		return nil, fmt.Errorf("coordinator: invalid topology %+v or no shard map", cfg.Topo)
	}
	if window < 1 {
		window = 1
	}
	if window > MaxWindow {
		return nil, fmt.Errorf("coordinator: session window %d exceeds %d", window, MaxWindow)
	}
	if cfg.ClientID >= 1<<workerIDShift {
		return nil, fmt.Errorf("coordinator: session client id %d overflows the worker-demux bits", cfg.ClientID)
	}

	s := &Session{cfg: cfg}
	// Shared broadcast-address table: workers never mutate it, so one copy
	// serves the whole pipeline.
	var groups [][]message.Addr
	for i := 0; i < window; i++ {
		wcfg := cfg
		wcfg.ClientID = cfg.ClientID | uint64(i)<<workerIDShift
		wcfg.Seed = cfg.Seed + int64(i)*0x9e3779b9
		w := newCore(wcfg)
		if groups == nil {
			groups = w.groups
		} else {
			w.groups = groups
		}
		w.shared = true
		w.reads.seq = uint64(i) << readSeqShift
		s.workers = append(s.workers, w)
	}

	var err error
	if s.ep, err = cfg.Net.Listen(cfg.Topo.ClientAddr(cfg.ClientID), s.route); err != nil {
		return nil, err
	}
	for _, w := range s.workers {
		w.Ep = s.ep
	}
	return s, nil
}

// route demultiplexes a reply onto the issuing worker's mailbox: multi-read
// replies echo the request's Seq, everything else carries the transaction id,
// whose ClientID holds the worker index. A reply no worker can own the router
// itself consumes.
func (s *Session) route(m *message.Message) {
	var i int
	if m.Type == message.TypeMultiReadReply {
		i = int(m.Seq >> readSeqShift)
	} else {
		i = int(m.TID.ClientID >> workerIDShift)
	}
	if i < len(s.workers) {
		s.workers[i].In.Handle(m)
		return
	}
	message.ReleaseMessage(m)
}

// Window returns the session's pipeline width.
func (s *Session) Window() int { return len(s.workers) }

// Worker returns the i'th pipelined coordinator. Each worker is a full
// Coordinator — Begin/Commit/Run/ReadMany all work — but is single-goroutine
// like any other: drive each worker from its own goroutine.
func (s *Session) Worker(i int) *Coordinator { return s.workers[i] }

// Topology returns the topology the session was built for.
func (s *Session) Topology() topo.Topology { return s.cfg.Topo }

// Close releases the session's endpoint. Workers must be idle.
func (s *Session) Close() { s.ep.Close() }
