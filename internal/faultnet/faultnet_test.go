package faultnet

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/message"
	"meerkat/internal/transport"
)

// collector buffers delivered messages behind a mutex for assertions.
type collector struct {
	mu   sync.Mutex
	msgs []*message.Message
}

func (c *collector) handle(m *message.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
}

func (c *collector) wait(n int, d time.Duration) int {
	deadline := time.Now().Add(d)
	for {
		c.mu.Lock()
		got := len(c.msgs)
		c.mu.Unlock()
		if got >= n || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *collector) seqs() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, len(c.msgs))
	for i, m := range c.msgs {
		out[i] = m.Seq
	}
	return out
}

func addr(node, core uint32) message.Addr { return message.Addr{Node: node, Core: core} }

// pipe builds a wrapped inproc network with a sender endpoint on node 1 and
// a receiving endpoint (with collector) on node 2.
func pipe(t *testing.T, plan *Plan) (*Network, transport.Endpoint, *collector) {
	t.Helper()
	n := Wrap(transport.NewInproc(transport.InprocConfig{}), plan)
	t.Cleanup(func() { n.Close() })
	var col collector
	if _, err := n.Listen(addr(2, 0), col.handle); err != nil {
		t.Fatal(err)
	}
	src, err := n.Listen(addr(1, 0), func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	return n, src, &col
}

func TestTransparentWithoutFaults(t *testing.T) {
	_, src, col := pipe(t, nil)
	for i := 0; i < 100; i++ {
		if err := src.Send(addr(2, 0), &message.Message{Type: message.TypeMultiRead, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := col.wait(100, time.Second); got != 100 {
		t.Fatalf("delivered %d/100 without faults", got)
	}
}

func TestDropIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []uint64 {
		plan := &Plan{Seed: seed, Rules: []Rule{{
			SrcNode: Any, DstNode: Any, SrcCore: Any, DstCore: Any, DropProb: 0.3,
		}}}
		_, src, col := pipe(t, plan)
		for i := 0; i < 400; i++ {
			src.Send(addr(2, 0), &message.Message{Type: message.TypeMultiRead, Seq: uint64(i)})
		}
		col.wait(400, 200*time.Millisecond) // waits out the tail
		return col.seqs()
	}
	a, b := run(7), run(7)
	if len(a) == 0 || len(a) == 400 {
		t.Fatalf("drop rule had no effect: %d/400 delivered", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different survivor counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different survivors at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(c) == len(a)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

// TestDropAllCountsEveryDrop: a certain-loss rule on every link delivers
// nothing and counts each message it swallowed.
func TestDropAllCountsEveryDrop(t *testing.T) {
	n, src, col := pipe(t, &Plan{Seed: 1, Rules: []Rule{EveryLink(Rule{DropProb: 1})}})
	for i := 0; i < 100; i++ {
		src.Send(addr(2, 0), &message.Message{Type: message.TypePut})
	}
	if got := col.wait(1, 20*time.Millisecond); got != 0 {
		t.Fatalf("%d messages delivered with DropProb=1", got)
	}
	if got := n.Stats().Dropped.Load(); got != 100 {
		t.Fatalf("Dropped = %d, want 100", got)
	}
}

// TestLinksDropIndependently: two links under one rule and one seed draw from
// different streams — the link's addresses are mixed into its seed — so their
// drop schedules differ.
func TestLinksDropIndependently(t *testing.T) {
	n, src1, _ := pipe(t, &Plan{Seed: 7, Rules: []Rule{EveryLink(Rule{DropProb: 0.5})}})
	src3, err := n.Listen(addr(3, 0), func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	schedule := func(src transport.Endpoint) (out [64]bool) {
		for i := range out {
			before := n.Stats().Dropped.Load()
			src.Send(addr(2, 0), &message.Message{Type: message.TypePut})
			out[i] = n.Stats().Dropped.Load() > before
		}
		return out
	}
	if schedule(src1) == schedule(src3) {
		t.Fatal("two links produced identical 64-send drop schedules")
	}
}

func TestCrashAndRestartEvents(t *testing.T) {
	plan := &Plan{Events: []Event{
		{At: 10, Op: OpCrash, Node: 2},
		{At: 20, Op: OpRestart, Node: 2},
	}}
	n, src, col := pipe(t, plan)

	for i := 0; i < 9; i++ { // sends 1..9: before the crash
		src.Send(addr(2, 0), &message.Message{Type: message.TypeMultiRead, Seq: uint64(i)})
	}
	if got := col.wait(9, time.Second); got != 9 {
		t.Fatalf("pre-crash delivered %d/9", got)
	}
	for i := 9; i < 19; i++ { // sends 10..19: black-holed
		src.Send(addr(2, 0), &message.Message{Type: message.TypeMultiRead, Seq: uint64(i)})
	}
	time.Sleep(10 * time.Millisecond)
	if got := col.wait(9, 50*time.Millisecond); got != 9 {
		t.Fatalf("black-holed messages leaked through: %d", got)
	}
	for i := 19; i < 29; i++ { // send 20 fires the restart
		src.Send(addr(2, 0), &message.Message{Type: message.TypeMultiRead, Seq: uint64(i)})
	}
	if got := col.wait(19, time.Second); got != 19 {
		t.Fatalf("post-restart delivered %d, want 19", got)
	}

	// Both events were published for the harness.
	for _, want := range []Op{OpCrash, OpRestart} {
		select {
		case ev := <-n.Events():
			if ev.Op != want || ev.Node != 2 {
				t.Fatalf("event %+v, want op %s node 2", ev, want)
			}
		default:
			t.Fatalf("missing %s event", want)
		}
	}
	if bh := n.Stats().Blackhole.Load(); bh != 10 {
		t.Fatalf("blackholed %d, want 10", bh)
	}
}

func TestPartitionSeparatesGroups(t *testing.T) {
	plan := &Plan{Events: []Event{
		{At: 0, Op: OpPartition, Groups: [][]uint32{{1}, {2}}},
	}}
	_, src, col := pipe(t, plan)
	for i := 0; i < 10; i++ {
		src.Send(addr(2, 0), &message.Message{Type: message.TypeMultiRead, Seq: uint64(i)})
	}
	if got := col.wait(1, 30*time.Millisecond); got != 0 {
		t.Fatalf("partitioned nodes exchanged %d messages", got)
	}
}

func TestPartitionImplicitGroup(t *testing.T) {
	// Only node 9 is isolated; unlisted nodes 1 and 2 share the implicit
	// group and keep talking.
	plan := &Plan{Events: []Event{
		{At: 0, Op: OpPartition, Groups: [][]uint32{{9}}},
		{At: 15, Op: OpHeal},
	}}
	_, src, col := pipe(t, plan)
	for i := 0; i < 10; i++ {
		src.Send(addr(2, 0), &message.Message{Type: message.TypeMultiRead, Seq: uint64(i)})
	}
	if got := col.wait(10, time.Second); got != 10 {
		t.Fatalf("implicit-group traffic blocked: %d/10", got)
	}
}

func TestDuplicateAndReorder(t *testing.T) {
	plan := &Plan{Seed: 3, Rules: []Rule{{
		SrcNode: Any, DstNode: Any, SrcCore: Any, DstCore: Any, DupProb: 1,
	}}}
	_, src, col := pipe(t, plan)
	src.Send(addr(2, 0), &message.Message{Type: message.TypeMultiRead, Seq: 1})
	if got := col.wait(2, time.Second); got != 2 {
		t.Fatalf("DupProb=1 delivered %d copies, want 2", got)
	}

	plan2 := &Plan{Seed: 3, Rules: []Rule{{
		SrcNode: Any, DstNode: Any, SrcCore: Any, DstCore: Any, ReorderProb: 1,
	}}}
	_, src2, col2 := pipe(t, plan2)
	src2.Send(addr(2, 0), &message.Message{Type: message.TypeMultiRead, Seq: 1})
	src2.Send(addr(2, 0), &message.Message{Type: message.TypeMultiRead, Seq: 2})
	src2.Send(addr(2, 0), &message.Message{Type: message.TypeMultiRead, Seq: 3})
	// Every message is held and released by its successor: 1 and 2 arrive
	// (each popped when the next message passes), 3 stays held.
	if got := col2.wait(2, time.Second); got != 2 {
		t.Fatalf("reorder released %d messages, want 2", got)
	}
	seqs := col2.seqs()
	if seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("reorder sequence %v", seqs)
	}
}

func TestDelayRuleDefersDelivery(t *testing.T) {
	plan := &Plan{Rules: []Rule{{
		SrcNode: Any, DstNode: Any, SrcCore: Any, DstCore: Any,
		DelayProb: 1, Delay: 30 * time.Millisecond,
	}}}
	_, src, col := pipe(t, plan)
	start := time.Now()
	src.Send(addr(2, 0), &message.Message{Type: message.TypeMultiRead, Seq: 1})
	if got := col.wait(1, time.Second); got != 1 {
		t.Fatal("delayed message never arrived")
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("delivery after %v, want >= ~30ms", el)
	}
}

func TestStallRuleInstalledAndCleared(t *testing.T) {
	plan := &Plan{Events: []Event{
		{At: 5, Op: OpRule, Rule: &Rule{
			ID: "stall-2-0", SrcNode: Any, SrcCore: Any, DstNode: 2, DstCore: 0,
			DropProb: 1,
		}},
		{At: 10, Op: OpClearRule, RuleID: "stall-2-0"},
	}}
	_, src, col := pipe(t, plan)
	for i := 0; i < 4; i++ { // sends 1..4 pass
		src.Send(addr(2, 0), &message.Message{Type: message.TypeMultiRead, Seq: uint64(i)})
	}
	if got := col.wait(4, time.Second); got != 4 {
		t.Fatalf("pre-stall delivered %d/4", got)
	}
	for i := 4; i < 9; i++ { // sends 5..9 dropped by the stall rule
		src.Send(addr(2, 0), &message.Message{Type: message.TypeMultiRead, Seq: uint64(i)})
	}
	for i := 9; i < 14; i++ { // send 10 clears; 10..14 pass
		src.Send(addr(2, 0), &message.Message{Type: message.TypeMultiRead, Seq: uint64(i)})
	}
	if got := col.wait(9, time.Second); got != 9 {
		t.Fatalf("delivered %d, want 9 (4 before + 5 after the stall)", got)
	}
}

func TestPlanDumpRoundTripAndDeterminism(t *testing.T) {
	plan := &Plan{
		Seed:  42,
		Rules: []Rule{EveryLink(Rule{ID: "loss", DropProb: 0.01})},
		Events: []Event{
			{At: 100, Op: OpCrash, Node: 3},
			{At: 500, Op: OpRestart, Node: 3},
		},
	}
	a, err := plan.Dump()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := plan.Dump()
	if !bytes.Equal(a, b) {
		t.Fatal("Dump is not byte-stable")
	}
	back, err := Load(a)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := back.Dump()
	if !bytes.Equal(a, c) {
		t.Fatal("Dump/Load/Dump changed the schedule")
	}
	// EveryLink is the four wildcards and nothing else: the rule survives the
	// round trip selecting every link, where a bare literal selects node 0.
	spelled := Rule{ID: "loss", SrcNode: Any, DstNode: Any, SrcCore: Any, DstCore: Any, DropProb: 0.01}
	if back.Rules[0] != spelled || !back.Rules[0].matches(7, 3, 1<<16, 0) {
		t.Fatalf("EveryLink rule came back as %+v", back.Rules[0])
	}
	if (&Rule{DropProb: 0.01}).matches(7, 3, 1<<16, 0) {
		t.Fatal("a rule with zero-valued selectors matched a link off node 0")
	}
}

func TestPlanValidation(t *testing.T) {
	bad := []*Plan{
		{Rules: []Rule{{DropProb: 1.5}}},
		{Rules: []Rule{{Delay: -time.Second}}},
		{Events: []Event{{Op: "warp"}}},
		{Events: []Event{{At: 10, Op: OpCrash}, {At: 5, Op: OpHeal}}},
		{Events: []Event{{Op: OpRule}}},
		{Events: []Event{{Op: OpClearRule}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated", i)
		}
	}
	if err := (&Plan{}).Validate(); err != nil {
		t.Errorf("zero plan rejected: %v", err)
	}
}

// TestDuplicateAndDelayedCopiesAreDistinctStructs pins the injector's half of
// the ownership contract: a duplicated message reaches the receiver as two
// different structs, each with Keys and Reads of its own, so the first
// delivery's release (which zeroes or poisons that struct, and empties the
// arrays it owns for the pool's next message to refill) cannot touch the
// second — on the immediate path and on the delayed one, where the copies
// leave from a timer goroutine; for a literal whose Keys alias its sender's
// array, which must come through unwritten, and for a pooled message that owns
// them. (A duplicate sharing its original's arrays fails the second case.)
func TestDuplicateAndDelayedCopiesAreDistinctStructs(t *testing.T) {
	keys := []string{"a", "b"}
	reads := []message.ReadResult{{Value: []byte("v"), OK: true}}
	literal := func() *message.Message {
		return &message.Message{Type: message.TypeMultiRead, Seq: 7, Keys: keys, Reads: reads}
	}
	owned := func() *message.Message {
		m := message.AcquireMessage()
		m.Type, m.Seq = message.TypeMultiRead, 7
		copy(m.OwnKeys(len(keys)), keys)
		copy(m.OwnReads(len(reads)), reads)
		return m
	}
	for _, build := range []func() *message.Message{literal, owned} {
		for _, delay := range []time.Duration{0, 2 * time.Millisecond} {
			rule := Rule{SrcNode: Any, DstNode: Any, SrcCore: Any, DstCore: Any, DupProb: 1}
			if delay > 0 {
				rule.DelayProb, rule.Delay = 1, delay
			}
			n := Wrap(transport.NewInproc(transport.InprocConfig{}), &Plan{Seed: 1, Rules: []Rule{rule}})
			type seen struct {
				m     *message.Message
				keys  []string
				value string
			}
			got := make(chan seen, 2)
			if _, err := n.Listen(addr(2, 0), func(m *message.Message) {
				s := seen{m: m, keys: append([]string(nil), m.Keys...)} // copied out before the release
				if len(m.Reads) == 1 {
					s.value = string(m.Reads[0].Value)
				}
				// The final consumer recycles its copy, and the pool's next
				// messages refill whatever arrays it kept.
				message.ReleaseMessage(m)
				for i := 0; i < 4; i++ {
					next := message.AcquireMessage()
					next.OwnKeys(2)[0], next.Keys[1] = "overwritten", "overwritten"
					next.OwnReads(1)[0].Value = []byte("overwritten")
				}
				got <- s
			}); err != nil {
				t.Fatal(err)
			}
			src, err := n.Listen(addr(1, 0), func(*message.Message) {})
			if err != nil {
				t.Fatal(err)
			}
			if err := src.Send(addr(2, 0), build()); err != nil {
				t.Fatal(err)
			}
			var first, second seen
			select {
			case first = <-got:
			case <-time.After(time.Second):
				t.Fatalf("delay %v: no delivery", delay)
			}
			select {
			case second = <-got:
			case <-time.After(time.Second):
				t.Fatalf("delay %v: duplicate never delivered", delay)
			}
			if first.m == second.m {
				t.Fatalf("delay %v: duplicate delivered as the same struct", delay)
			}
			for _, s := range []seen{first, second} {
				if len(s.keys) != 2 || s.keys[0] != "a" || s.keys[1] != "b" || s.value != "v" {
					t.Fatalf("delay %v: a copy arrived with keys %v, value %q after the other's release", delay, s.keys, s.value)
				}
			}
			if keys[0] != "a" || keys[1] != "b" || string(reads[0].Value) != "v" {
				t.Fatalf("delay %v: sender's slices changed: %v %+v", delay, keys, reads)
			}
			n.Close()
		}
	}
}

// TestCloseReleasesDelayedSends: a message held back by a delay rule — and the
// duplicate made of it — belongs to the network until it is due. Closing the
// network first cancels the send: once Close has returned nothing more leaves
// the injector, however far the clock then moves, and the structs have been
// released, not left with a timer nobody owns.
func TestCloseReleasesDelayedSends(t *testing.T) {
	clk := clock.NewManual(0)
	inner := transport.NewInproc(transport.InprocConfig{Clock: clk})
	n := Wrap(inner, &Plan{Seed: 1, Rules: []Rule{EveryLink(Rule{DupProb: 1, DelayProb: 1, Delay: 50 * time.Millisecond})}})
	var col collector
	if _, err := n.Listen(addr(2, 0), col.handle); err != nil {
		t.Fatal(err)
	}
	src, err := n.Listen(addr(1, 0), func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	m := message.AcquireMessage()
	m.Type, m.Seq = message.TypeMultiRead, 7
	if err := src.Send(addr(2, 0), m); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats().Summary(); st.Delayed != 1 || st.Duplicated != 1 {
		t.Fatalf("stats %+v, want one message delayed and duplicated", st)
	}

	n.Close()
	if m.Seq == 7 {
		t.Error("Close left the delayed message unreleased")
	}
	clk.Advance(int64(time.Second))
	if st := inner.Stats(); st.Sent != 0 || len(col.seqs()) != 0 {
		t.Errorf("after Close the injector still sent: inner stats %+v, delivered %v", st, col.seqs())
	}
}

// TestDelayedSendFindsItsEndpointClosed: the delay ends after the sending
// endpoint has gone; the endpoint releases what it is handed.
func TestDelayedSendFindsItsEndpointClosed(t *testing.T) {
	clk := clock.NewManual(0)
	n := Wrap(transport.NewInproc(transport.InprocConfig{Clock: clk}),
		&Plan{Seed: 1, Rules: []Rule{EveryLink(Rule{DelayProb: 1, Delay: 50 * time.Millisecond})}})
	defer n.Close()
	src, err := n.Listen(addr(1, 0), func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	m := message.AcquireMessage()
	m.Type, m.Seq = message.TypeMultiRead, 7
	src.Send(addr(2, 0), m)
	src.Close()
	if clk.Advance(int64(50 * time.Millisecond)); m.Seq == 7 {
		t.Error("a delayed message that found its endpoint closed was not released")
	}
}
