package faultnet

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/message"
	"meerkat/internal/transport"
)

// Stats counts injected faults. Read with the atomic Load methods; every
// counter is also exported as an obs gauge by RegisterObs.
type Stats struct {
	Sent        atomic.Uint64 // messages entering the injector
	Dropped     atomic.Uint64 // rule drops
	Blackhole   atomic.Uint64 // drops due to crash black-holes and partitions
	Duplicated  atomic.Uint64
	Delayed     atomic.Uint64
	Reordered   atomic.Uint64
	EventsFired atomic.Uint64
}

// PlanStats is a plain-value snapshot of Stats, for embedding in results
// and reports.
type PlanStats struct {
	Sent        uint64 `json:"sent"`
	Dropped     uint64 `json:"dropped"`
	Blackholed  uint64 `json:"blackholed"`
	Duplicated  uint64 `json:"duplicated"`
	Delayed     uint64 `json:"delayed"`
	Reordered   uint64 `json:"reordered"`
	EventsFired uint64 `json:"events_fired"`
}

// Summary loads every counter once and returns the plain-value snapshot.
func (s *Stats) Summary() PlanStats {
	return PlanStats{
		Sent:        s.Sent.Load(),
		Dropped:     s.Dropped.Load(),
		Blackholed:  s.Blackhole.Load(),
		Duplicated:  s.Duplicated.Load(),
		Delayed:     s.Delayed.Load(),
		Reordered:   s.Reordered.Load(),
		EventsFired: s.EventsFired.Load(),
	}
}

// netState is the injector's copy-on-write fault state: it is replaced
// wholesale when an event fires and read with one atomic load per send, so
// the steady state adds no locking to the send path.
type netState struct {
	down   map[uint32]bool   // crashed (black-holed) nodes
	groups []map[uint32]bool // partition components; nil = fully connected
	rules  []Rule            // active rules, first match wins
}

// reachable applies crash and partition state to the (src, dst) node pair.
func (s *netState) reachable(src, dst uint32) bool {
	if s.down[src] || s.down[dst] {
		return false
	}
	if s.groups == nil {
		return true
	}
	return s.groupOf(src) == s.groupOf(dst)
}

// groupOf returns the partition component index of node; nodes not listed in
// any component share the implicit component -1.
func (s *netState) groupOf(node uint32) int {
	for i, g := range s.groups {
		if g[node] {
			return i
		}
	}
	return -1
}

// linkState is the per-(src endpoint, dst endpoint) decision state: the
// splitmix64 stream and the at-most-one held (reordered) message. One sender
// goroutine drives each source endpoint in the intended wiring, so the mutex
// is uncontended; it exists to keep the layer safe under any usage.
type linkState struct {
	mu   sync.Mutex
	rng  uint64
	held *heldMsg
}

type heldMsg struct {
	dst message.Addr
	m   *message.Message
}

// next draws one uniform float64 in [0, 1) from the link's stream.
// Callers hold l.mu.
func (l *linkState) next() float64 {
	l.rng += 0x9e3779b97f4a7c15
	return float64(transport.Mix64(l.rng)>>11) / (1 << 53)
}

// Network wraps a transport.Network and injects the plan's faults into every
// send. It implements transport.Network; endpoints returned by Listen wrap
// the inner transport's endpoints.
type Network struct {
	inner transport.Network
	plan  *Plan
	stats Stats
	g     *clock.Group // the delayed sends in flight, on inner's clock; Close cancels them

	msgCount atomic.Uint64
	state    atomic.Pointer[netState]

	// nextAt caches the trigger count of the next unfired event so the
	// steady-state send path pays one atomic load, not a mutex.
	nextAt  atomic.Uint64
	eventMu sync.Mutex
	nextIdx int // first unfired event (guarded by eventMu)

	linkMu sync.RWMutex
	links  map[[2]message.Addr]*linkState

	events chan Event // fired events, for the harness controller; may be nil
}

// Wrap layers the plan's faults over inner. The plan must be valid
// (Plan.Validate); Wrap panics otherwise, because a half-applied schedule is
// worse than no schedule. A nil plan yields a transparent wrapper.
func Wrap(inner transport.Network, plan *Plan) *Network {
	if plan == nil {
		plan = &Plan{}
	}
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	n := &Network{
		inner: inner,
		plan:  plan,
		g:     clock.NewGroup(inner.Clock()),
		links: make(map[[2]message.Addr]*linkState),
		// Buffered to the event count: the firing send never blocks on a
		// slow consumer, and no event is ever lost.
		events: make(chan Event, len(plan.Events)),
	}
	st := &netState{rules: append([]Rule(nil), plan.Rules...)}
	n.state.Store(st)
	if len(plan.Events) > 0 {
		n.nextAt.Store(plan.Events[0].At)
		// Events scheduled at count 0 precede the first send.
		n.fireDue(0)
	} else {
		n.nextAt.Store(math.MaxUint64)
	}
	return n
}

// Plan returns the wrapped (immutable) schedule.
func (n *Network) Plan() *Plan { return n.plan }

// Stats returns the injector's fault counters.
func (n *Network) Stats() *Stats { return &n.stats }

// Events returns the channel on which fired events are delivered, in firing
// order. A harness that maps OpCrash/OpRestart onto real replica lifecycle
// (stop, state transfer, epoch change) consumes this; leaving the channel
// undrained is safe.
func (n *Network) Events() <-chan Event { return n.events }

// MessageCount returns the number of sends observed so far — the clock the
// event schedule runs on.
func (n *Network) MessageCount() uint64 { return n.msgCount.Load() }

// Listen implements transport.Network.
func (n *Network) Listen(addr message.Addr, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.inner.Listen(addr, h)
	if err != nil {
		return nil, err
	}
	return &endpoint{net: n, inner: ep}, nil
}

// Clock implements transport.Network: the wrapped fabric's.
func (n *Network) Clock() clock.Clock { return n.g.Clock }

// Close implements transport.Network. The delayed messages still waiting are
// released, not sent: nothing leaves the injector once Close has returned.
func (n *Network) Close() error {
	n.g.Close()
	return n.inner.Close()
}

// fireDue applies every event with At <= count, in plan order, exactly once.
func (n *Network) fireDue(count uint64) {
	n.eventMu.Lock()
	defer n.eventMu.Unlock()
	events := n.plan.Events
	for n.nextIdx < len(events) && events[n.nextIdx].At <= count {
		ev := events[n.nextIdx]
		n.nextIdx++
		n.apply(&ev)
		n.stats.EventsFired.Add(1)
		select {
		case n.events <- ev:
		default: // capacity == len(events); unreachable, but never block
		}
	}
	if n.nextIdx < len(events) {
		n.nextAt.Store(events[n.nextIdx].At)
	} else {
		n.nextAt.Store(math.MaxUint64)
	}
}

// apply installs one event into a fresh copy of the fault state.
// Callers hold eventMu.
func (n *Network) apply(ev *Event) {
	old := n.state.Load()
	st := &netState{
		down:   make(map[uint32]bool, len(old.down)),
		groups: old.groups,
		rules:  old.rules,
	}
	for node := range old.down {
		st.down[node] = true
	}
	switch ev.Op {
	case OpCrash:
		st.down[ev.Node] = true
	case OpRestart:
		delete(st.down, ev.Node)
	case OpPartition:
		st.groups = make([]map[uint32]bool, len(ev.Groups))
		for i, g := range ev.Groups {
			st.groups[i] = make(map[uint32]bool, len(g))
			for _, node := range g {
				st.groups[i][node] = true
			}
		}
	case OpHeal:
		st.groups = nil
	case OpRule:
		rules := make([]Rule, 0, len(old.rules)+1)
		rules = append(rules, *ev.Rule)
		rules = append(rules, old.rules...)
		st.rules = rules
	case OpClearRule:
		rules := make([]Rule, 0, len(old.rules))
		for _, r := range old.rules {
			if r.ID != ev.RuleID {
				rules = append(rules, r)
			}
		}
		st.rules = rules
	}
	n.state.Store(st)
}

// link returns (lazily creating) the decision state of the (src, dst) link.
func (n *Network) link(src, dst message.Addr) *linkState {
	key := [2]message.Addr{src, dst}
	n.linkMu.RLock()
	l := n.links[key]
	n.linkMu.RUnlock()
	if l != nil {
		return l
	}
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	if l = n.links[key]; l != nil {
		return l
	}
	seed := uint64(n.plan.Seed) ^
		uint64(src.Node)<<48 ^ uint64(src.Core)<<32 ^
		uint64(dst.Node)<<16 ^ uint64(dst.Core)
	l = &linkState{rng: transport.Mix64(seed)}
	n.links[key] = l
	return l
}

// endpoint wraps one inner endpoint, running every Send through the injector.
type endpoint struct {
	net   *Network
	inner transport.Endpoint
}

// Addr implements transport.Endpoint.
func (ep *endpoint) Addr() message.Addr { return ep.inner.Addr() }

// Close implements transport.Endpoint.
func (ep *endpoint) Close() error { return ep.inner.Close() }

// Send implements transport.Endpoint: count the send, fire due events, apply
// crash/partition state, then run the first matching rule's drop, duplicate,
// reorder, and delay draws against the link's private stream. The injector
// owns m until it hands it to the inner transport (held and delayed messages
// included) and recycles what it drops.
func (ep *endpoint) Send(dst message.Addr, m *message.Message) error {
	n := ep.net
	count := n.msgCount.Add(1)
	n.stats.Sent.Add(1)
	if count >= n.nextAt.Load() {
		n.fireDue(count)
	}

	src := ep.inner.Addr()
	st := n.state.Load()
	if !st.reachable(src.Node, dst.Node) {
		n.stats.Blackhole.Add(1)
		message.ReleaseMessage(m)
		return nil // silently dropped, like a dead link
	}

	var rule *Rule
	for i := range st.rules {
		if st.rules[i].matches(src.Node, src.Core, dst.Node, dst.Core) {
			rule = &st.rules[i]
			break
		}
	}
	if rule == nil {
		return ep.inner.Send(dst, m)
	}

	l := n.link(src, dst)
	l.mu.Lock()
	if rule.DropProb > 0 && l.next() < rule.DropProb {
		l.mu.Unlock()
		n.stats.Dropped.Add(1)
		message.ReleaseMessage(m)
		return nil
	}
	dup := rule.DupProb > 0 && l.next() < rule.DupProb
	reorder := rule.ReorderProb > 0 && l.next() < rule.ReorderProb
	var delay time.Duration
	if rule.DelayProb > 0 && l.next() < rule.DelayProb {
		delay = rule.Delay
		if rule.Jitter > 0 {
			l.rng += 0x9e3779b97f4a7c15
			delay += time.Duration(transport.Mix64(l.rng) % uint64(rule.Jitter))
		}
	}

	if reorder && delay == 0 {
		// Hold this message; release the previously held one (if any) now,
		// so at most one message per link is ever in the hold slot. The held
		// message departs when the link's next message passes through.
		prev := l.held
		l.held = &heldMsg{dst: dst, m: m}
		l.mu.Unlock()
		n.stats.Reordered.Add(1)
		if prev != nil {
			ep.inner.Send(prev.dst, prev.m)
		}
		return nil
	}
	held := l.held
	l.held = nil
	l.mu.Unlock()

	err := ep.send(dst, m, dup, delay)
	if held != nil {
		// A message passed the link: release the held one after it.
		ep.inner.Send(held.dst, held.m)
	}
	return err
}

// SendBatch implements transport.Endpoint. Each message runs through the
// injector individually — fault draws are per message, exactly as if the
// caller had issued N Sends — so fault schedules are identical whether the
// layer below batches or not.
func (ep *endpoint) SendBatch(batch []transport.Outgoing) error {
	var firstErr error
	for i := range batch {
		if err := ep.Send(batch[i].Dst, batch[i].M); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Flush implements transport.Endpoint, passing through to the wrapped wire.
func (ep *endpoint) Flush() error { return ep.inner.Flush() }

// send delivers m (and its duplicate) now or after the injected delay. The
// duplicate is a distinct Message struct, copied before the original is
// handed on — the inner transport owns m from that moment and its receiver
// may already be recycling it. The two share the Txn sets, which nobody
// writes, and each owns its Keys and Reads (message.CopyFrom), which the
// original's receiver empties on release: exactly a duplicating network, whose
// receivers each see the bytes. A delayed message belongs to the network's
// group until it is due: closing the network releases it unsent (and an
// endpoint found closed when the delay ends releases what it is handed).
func (ep *endpoint) send(dst message.Addr, m *message.Message, dup bool, delay time.Duration) error {
	var m2 *message.Message
	if dup {
		ep.net.stats.Duplicated.Add(1)
		m2 = message.AcquireMessage()
		m2.CopyFrom(m)
	}
	if delay > 0 {
		ep.net.stats.Delayed.Add(1)
		ep.net.g.After(delay, func(due bool) {
			if !due {
				message.ReleaseMessage(m)
				message.ReleaseMessage(m2)
				return
			}
			ep.inner.Send(dst, m)
			if m2 != nil {
				ep.inner.Send(dst, m2)
			}
		})
		return nil
	}
	err := ep.inner.Send(dst, m)
	if m2 != nil {
		ep.inner.Send(dst, m2)
	}
	return err
}
