// Package dsim is a deterministic, single-goroutine harness for the real
// replica handlers and the epoch-change machine: a fake transport.Network
// whose Listen only records the handler and whose Send puts the message in a
// bag, a scheduler that delivers, drops or holds back one message per step,
// and a virtual clock handed to Tick. Nothing sleeps, nothing runs on another
// goroutine, and a schedule is a byte string that replays exactly. It is test
// code only and nothing imports it.
package dsim

import (
	"fmt"
	"strings"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/drive"
	"meerkat/internal/message"
	"meerkat/internal/recovery"
	"meerkat/internal/replica"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
	"meerkat/internal/vstore"
)

var (
	simTopo = topo.Topology{Partitions: 1, Replicas: 3, Cores: 1}
	simT0   = time.Unix(1_000_000, 0)
	loadTS  = timestamp.Timestamp{Time: 1}
)

const (
	simKey     = "k"
	simTimeout = 100 * time.Millisecond
	simRetries = 3
)

// envelope is one message in flight.
type envelope struct {
	dst message.Addr
	m   *message.Message
}

// A schedule is what the scheduler did, one op per step; render prints it.
type op struct {
	kind     byte // 'd'eliver, 'x' drop, 'l'ost (nobody listens), 't'ick, or an event's letter
	typ      message.Type
	src, dst message.Addr
	at       time.Duration // tick: the virtual time since simT0
	note     string        // event: what happened
}

// world is the fake network, the bag and the clock.
type world struct {
	clk      *clock.Manual
	handlers map[message.Addr]transport.Handler
	bag      []envelope
	held     func(e *envelope) bool // messages the scheduler may not touch yet; nil: none
	trace    []op
}

func newWorld() *world {
	return &world{clk: clock.NewManual(simT0.UnixNano()), handlers: make(map[message.Addr]transport.Handler)}
}

func (w *world) Listen(addr message.Addr, h transport.Handler) (transport.Endpoint, error) {
	if _, bound := w.handlers[addr]; bound {
		return nil, transport.ErrAddrInUse
	}
	w.handlers[addr] = h
	return &endpoint{w: w, addr: addr}, nil
}

func (w *world) Close() error { return nil }

// Clock is what the replicas age their records by. Nothing under the harness
// waits on it yet: the scheduler ticks the machines itself.
func (w *world) Clock() clock.Clock { return w.clk }

func (w *world) now() time.Time { return time.Unix(0, w.clk.Now()) }

type endpoint struct {
	w    *world
	addr message.Addr
}

func (e *endpoint) Addr() message.Addr { return e.addr }
func (e *endpoint) Flush() error       { return nil }

func (e *endpoint) Close() error {
	delete(e.w.handlers, e.addr)
	return nil
}

func (e *endpoint) Send(dst message.Addr, m *message.Message) error {
	m.Src = e.addr
	e.w.bag = append(e.w.bag, envelope{dst: dst, m: m})
	return nil
}

func (e *endpoint) SendBatch(batch []transport.Outgoing) error {
	for _, o := range batch {
		e.Send(o.Dst, o.M)
	}
	return nil
}

// eligible lists the bag positions the scheduler may act on.
func (w *world) eligible(buf []int) []int {
	buf = buf[:0]
	for i := range w.bag {
		if w.held == nil || !w.held(&w.bag[i]) {
			buf = append(buf, i)
		}
	}
	return buf
}

// take removes bag[i], keeping the order of the rest.
func (w *world) take(i int) envelope {
	e := w.bag[i]
	w.bag = append(w.bag[:i], w.bag[i+1:]...)
	return e
}

// deliver hands bag[i] to whoever listens at its destination.
func (w *world) deliver(i int) {
	e := w.take(i)
	h := w.handlers[e.dst]
	rec := op{kind: 'd', typ: e.m.Type, src: e.m.Src, dst: e.dst}
	if h == nil {
		rec.kind = 'l'
		message.ReleaseMessage(e.m)
	} else {
		h(e.m)
	}
	w.trace = append(w.trace, rec)
}

func (w *world) drop(i int) {
	e := w.take(i)
	w.trace = append(w.trace, op{kind: 'x', typ: e.m.Type, src: e.m.Src, dst: e.dst})
	message.ReleaseMessage(e.m)
}

func (w *world) event(kind byte, format string, args ...any) {
	w.trace = append(w.trace, op{kind: kind, note: fmt.Sprintf(format, args...)})
}

// render prints a schedule, one step per line.
func render(trace []op) string {
	var b strings.Builder
	for i, o := range trace {
		switch o.kind {
		case 'd', 'x', 'l':
			verb := map[byte]string{'d': "deliver", 'x': "drop", 'l': "lost"}[o.kind]
			fmt.Fprintf(&b, "%4d %-7s %-26v %v -> %v\n", i, verb, o.typ, o.src, o.dst)
		case 't':
			fmt.Fprintf(&b, "%4d tick    +%v\n", i, o.at)
		default:
			fmt.Fprintf(&b, "%4d %c       %s\n", i, o.kind, o.note)
		}
	}
	return b.String()
}

// client is a hand-sized transaction coordinator: it reads the key at one
// replica, validates a read-modify-write of it at all three, decides on the
// fast quorum or proposes the majority's verdict on the slow path, and tells
// the group. It is a step machine like everything else here.
type client struct {
	w        *world
	ep       transport.Endpoint
	tid      timestamp.TxnID
	ts       timestamp.Timestamp
	value    []byte
	readFrom int

	phase   clientPhase
	wake    time.Time // the phase's deadline
	resends int

	readWTS          timestamp.Timestamp
	readVal          []byte
	seen             uint8 // replicas that answered the attempt
	ok, abort, acks  int
	proposal         message.Status
	decided, commits bool // decided: the application was told; commits: "committed"
}

type clientPhase uint8

const (
	cIdle clientPhase = iota
	cReading
	cValidating
	cAccepting
	cDone
)

func newClient(w *world, id uint64, readFrom int, ts int64, value string) *client {
	c := &client{
		w: w, tid: timestamp.TxnID{Seq: 1, ClientID: id}, ts: timestamp.Timestamp{Time: ts, ClientID: id},
		value: []byte(value), readFrom: readFrom,
	}
	c.ep, _ = w.Listen(simTopo.ClientAddr(id), c.handle)
	return c
}

func (c *client) acked() bool { return c.decided && c.commits }
func (c *client) busy() bool  { return c.phase != cIdle && c.phase != cDone }

func (c *client) start() {
	c.phase = cReading
	c.request()
}

// request sends the phase's request and starts its deadline.
func (c *client) request() {
	c.wake = c.w.now().Add(simTimeout)
	c.seen, c.ok, c.abort, c.acks = 0, 0, 0, 0
	switch c.phase {
	case cReading:
		c.ep.Send(simTopo.ReplicaAddr(0, c.readFrom, 0), &message.Message{Type: message.TypeMultiRead, Keys: []string{simKey}, Seq: c.tid.ClientID})
	case cValidating:
		c.broadcast(message.Message{Type: message.TypeValidate, TS: c.ts, Txn: c.txn()})
	case cAccepting:
		c.broadcast(message.Message{Type: message.TypeAccept, TID: c.tid, TS: c.ts, Txn: c.txn(), Status: c.proposal})
	}
}

func (c *client) txn() message.Txn {
	return message.Txn{
		ID:       c.tid,
		ReadSet:  []message.ReadSetEntry{{Key: simKey, WTS: c.readWTS, VHash: message.HashValue(c.readVal)}},
		WriteSet: []message.WriteSetEntry{{Key: simKey, Value: c.value}},
	}
}

func (c *client) broadcast(m message.Message) {
	for r := 0; r < simTopo.Replicas; r++ {
		cp := m
		c.ep.Send(simTopo.ReplicaAddr(0, r, 0), &cp)
	}
}

func (c *client) decide(commit bool) {
	c.phase, c.decided, c.commits = cDone, true, commit
	st := message.StatusAborted
	if commit {
		st = message.StatusCommitted
	}
	c.broadcast(message.Message{Type: message.TypeCommit, TID: c.tid, Status: st})
}

func (c *client) handle(m *message.Message) {
	defer message.ReleaseMessage(m)
	first := m.ReplicaID < 8 && c.seen&(1<<m.ReplicaID) == 0
	switch {
	case m.Type == message.TypeMultiReadReply && c.phase == cReading && len(m.Reads) == 1:
		c.readWTS, c.readVal = m.Reads[0].WTS, m.Reads[0].Value
		c.phase, c.resends = cValidating, 0
		c.request()
	case m.Type == message.TypeValidateReply && c.phase == cValidating && m.TID == c.tid && first:
		c.seen |= 1 << m.ReplicaID
		switch m.Status {
		case message.StatusValidatedOK:
			c.ok++
		case message.StatusValidatedAbort:
			c.abort++
		case message.StatusCommitted, message.StatusAborted:
			c.decide(m.Status == message.StatusCommitted)
			return
		}
		if c.ok+c.abort == simTopo.Replicas {
			c.closeValidate()
		}
	case m.Type == message.TypeAcceptReply && c.phase == cAccepting && m.TID == c.tid && m.Status.Final():
		c.decide(m.Status == message.StatusCommitted)
	case m.Type == message.TypeAcceptReply && c.phase == cAccepting && m.TID == c.tid && m.OK && first:
		c.seen |= 1 << m.ReplicaID
		if c.acks++; c.acks >= simTopo.Majority() {
			c.decide(c.proposal == message.StatusAcceptCommit)
		}
	}
}

// closeValidate ends the collect: the fast quorum decides, a majority goes to
// the slow path with its verdict, less is resent.
func (c *client) closeValidate() {
	switch fast := simTopo.FastQuorum(); {
	case c.ok >= fast || c.abort >= fast:
		c.decide(c.ok >= fast)
	case c.ok+c.abort >= simTopo.Majority():
		c.proposal = message.StatusAcceptAbort
		if c.ok >= simTopo.Majority() {
			c.proposal = message.StatusAcceptCommit
		}
		c.phase, c.resends = cAccepting, 0
		c.request()
	default:
		c.retry()
	}
}

func (c *client) retry() {
	if c.resends++; c.resends > simRetries {
		c.phase = cDone // gave up: the outcome is unknown
		return
	}
	c.request()
}

func (c *client) tick(now time.Time) {
	switch {
	case !c.busy() || now.Before(c.wake):
	case c.phase == cValidating:
		c.closeValidate()
	default:
		c.retry()
	}
}

// admin is what Admin.RecoverReplica and Admin.EpochChange do, stepped: it
// rebuilds a crashed replica from a donor's store and steps the epoch-change
// machine the way drive.Link.Run would, without ever waiting.
type admin struct {
	w      *world
	ep     transport.Endpoint
	ec     *recovery.EpochChange
	epoch  uint64
	policy drive.Policy
	merges int     // epoch changes that merged and installed
	errs   []error // one per epoch change that ended, nil for a success
}

func newAdmin(w *world, seed uint64) *admin {
	a := &admin{w: w, policy: drive.Policy{
		Timeout: simTimeout, Retries: simRetries, BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		Rng: transport.SeedSplitMix64(seed),
	}}
	a.ep, _ = w.Listen(simTopo.EpochChangeAddr(0), a.handle)
	return a
}

func (a *admin) start() {
	a.epoch++
	a.ec = recovery.NewEpochChange(&drive.Link{Ep: a.ep}, simTopo, 0, a.epoch, a.policy, nil)
	a.w.event('E', "epoch change %d begins", a.epoch)
	a.pump()
}

func (a *admin) handle(m *message.Message) {
	if a.ec != nil {
		a.ec.Reply(m)
	}
	message.ReleaseMessage(m)
	a.pump()
}

// pump is the body of drive.Link.Run with the mailbox empty: perform, and
// tick for as long as the machine's wake instant has come.
func (a *admin) pump() {
	for a.ec != nil {
		a.ec.Perform()
		open, wake := a.ec.Pending()
		if open == 0 {
			merged, err := a.ec.Result()
			if merged != nil {
				a.merges++
			}
			a.errs = append(a.errs, err)
			a.w.event('E', "epoch change %d ends: %v, %d merged", a.epoch, err, len(merged))
			a.ec = nil
		} else if wake.After(a.w.now()) {
			return
		} else {
			a.ec.Tick(a.w.now())
		}
	}
}

// scenario is the cast of ROADMAP item 2's schedule: three replicas of one
// group holding one key, a writer, a late read-modify-writer, one crash and
// one recovery.
type scenario struct {
	w     *world
	reps  [3]*replica.Replica
	a, b  *client
	admin *admin
}

func newScenario(seed uint64) *scenario {
	s := &scenario{w: newWorld()}
	for r := range s.reps {
		st := vstore.New(vstore.Config{Shards: 1})
		st.Load(simKey, []byte("v0"), loadTS)
		s.boot(r, st, false)
	}
	s.a = newClient(s.w, 1, 0, 10, "v1")
	s.b = newClient(s.w, 2, 1, 20, "v2")
	s.admin = newAdmin(s.w, seed)
	return s
}

func (s *scenario) boot(r int, st *vstore.Store, recovering bool) {
	rep, err := replica.New(replica.Config{Topo: simTopo, Index: r, Net: s.w, Store: st, Recovering: recovering})
	if err == nil {
		err = rep.Start()
	}
	if err != nil {
		panic(err)
	}
	s.reps[r] = rep
}

func (s *scenario) crash(r int) {
	s.reps[r].Crash()
	s.reps[r] = nil
	s.w.event('C', "replica %d crashes", r)
}

// restart rebuilds replica r from the donor's committed state, as
// Admin.RecoverReplica does, and begins the epoch change that admits it.
func (s *scenario) restart(r, donor int) {
	st := vstore.New(vstore.Config{Shards: 1})
	st.ImportState(s.reps[donor].Store().ExportShard(0))
	s.boot(r, st, true)
	s.w.event('R', "replica %d rebuilt from replica %d's store", r, donor)
	s.admin.start()
}

// advance moves the clock to t and lets every machine whose wake has come act.
func (s *scenario) advance(t time.Time) {
	if t.After(s.w.now()) {
		s.w.clk.Set(t.UnixNano())
	}
	now := s.w.now()
	s.w.trace = append(s.w.trace, op{kind: 't', at: now.Sub(simT0)})
	s.a.tick(now)
	s.b.tick(now)
	s.admin.pump()
}

// nextWake is the earliest instant a machine is waiting for; ok is false when
// none waits.
func (s *scenario) nextWake() (t time.Time, ok bool) {
	for _, c := range []*client{s.a, s.b} {
		if c.busy() {
			t, ok = drive.Earlier(t, c.wake), true
		}
	}
	if s.admin.ec != nil {
		_, wake := s.admin.ec.Pending()
		t, ok = drive.Earlier(t, wake), true
	}
	return t, ok
}

// settle delivers everything deliverable in arrival order and lets time pass
// whenever nothing is, until no machine waits for anything.
func (s *scenario) settle() {
	var buf []int
	for steps := 0; steps < 10_000; steps++ {
		if el := s.w.eligible(buf); len(el) > 0 {
			s.w.deliver(el[0])
		} else if t, ok := s.nextWake(); ok {
			s.advance(t)
		} else {
			return
		}
	}
	panic("dsim: settle does not terminate")
}

// finish quiesces the group — nothing held, nothing dropped, an epoch change
// that must succeed — reads every replica's record table back and checks the
// invariants. It returns what it found wrong.
func (s *scenario) finish() []string {
	var bad []string
	s.w.held = nil
	s.settle()
	s.admin.start()
	s.settle()
	if err := s.admin.errs[len(s.admin.errs)-1]; err != nil {
		bad = append(bad, fmt.Sprintf("the quiescent epoch change failed: %v", err))
	}

	// Read the records back the way the epoch change does.
	records := make(map[timestamp.TxnID][3]message.Status)
	probe, _ := s.w.Listen(simTopo.ClientAddr(99), func(m *message.Message) {
		for _, e := range m.Records {
			st := records[e.Txn.ID]
			st[m.ReplicaID] = e.Status
			records[e.Txn.ID] = st
		}
		message.ReleaseMessage(m)
	})
	for r := range s.reps {
		probe.Send(simTopo.ReplicaAddr(0, r, 0), &message.Message{Type: message.TypeEpochChange, Epoch: s.admin.epoch + 1})
	}
	s.settle()

	// Serial order is timestamp order (a before b): a committed transaction
	// read the version the last committed writer before it wrote.
	want := loadTS
	for _, c := range []*client{s.a, s.b} {
		st := records[c.tid]
		commits, aborts := 0, 0
		for _, x := range st {
			if x == message.StatusCommitted {
				commits++
			} else if x == message.StatusAborted {
				aborts++
			}
		}
		if commits > 0 && aborts > 0 {
			bad = append(bad, fmt.Sprintf("replicas finalized %v differently: %v", c.tid, st))
		}
		if c.acked() && commits != len(st) {
			bad = append(bad, fmt.Sprintf("acknowledged commit %v did not survive the merge: %v", c.tid, st))
		}
		if c.decided && !c.commits && commits > 0 {
			bad = append(bad, fmt.Sprintf("%v was reported aborted and is committed: %v", c.tid, st))
		}
		if commits > 0 {
			if c.readWTS != want {
				bad = append(bad, fmt.Sprintf("%v committed at %v having read version %v, not %v", c.tid, c.ts, c.readWTS, want))
			}
			want = c.ts
		}
	}
	for r, rep := range s.reps {
		if v, _ := rep.Store().Read(simKey); v.WTS != want {
			bad = append(bad, fmt.Sprintf("replica %d holds version %v of the key, want %v", r, v.WTS, want))
		}
	}
	return bad
}
