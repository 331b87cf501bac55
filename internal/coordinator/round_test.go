package coordinator

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/drive"
	"meerkat/internal/message"
	"meerkat/internal/shardmap"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

// The validate round is a step machine, so its protocol logic is tested
// without a network and without a clock: a script of replies and instants is
// fed to reply and tick, and after every step the test plays the driver's
// part — it notes which partitions asked for a broadcast and clears the
// flags.

var (
	roundTopo = topo.Topology{Partitions: 4, Replicas: 3, Cores: 2}
	roundTID  = timestamp.TxnID{Seq: 7, ClientID: 1}
	roundT0   = time.Unix(1_000_000, 0)
)

const (
	testProposer = 1<<19 + 1 // what newCore derives from ClientID 1
	roundTimeout = 100 * time.Millisecond
	roundGrace   = roundTimeout / 10
	roundBackoff = time.Millisecond // BackoffMax: every backoff is over by then
)

// newTestRound begins a round over the given partitions at roundT0.
func newTestRound(touched ...int) *round {
	cfg := &Config{Topo: roundTopo, ClientID: 1, Timeout: roundTimeout, Retries: 2, BackoffBase: roundBackoff, BackoffMax: roundBackoff}
	r := new(round)
	r.init(cfg, nil, testProposer)
	for _, p := range touched {
		r.parts = append(r.parts, partState{p: p, txn: message.Txn{ID: roundTID}})
		r.index[p] = len(r.parts)
	}
	r.begin(roundTID, timestamp.Timestamp{Time: 1, ClientID: 1}, 0, roundT0)
	return r
}

// from stamps m as sent by replica `replica` of partition p.
func from(p, replica int, m message.Message) *message.Message {
	m.Src = roundTopo.ReplicaAddr(p, replica, 0)
	m.ReplicaID = uint32(replica)
	if m.TID.IsZero() {
		m.TID = roundTID
	}
	return &m
}

func validated(p, replica int, st message.Status) *message.Message {
	return from(p, replica, message.Message{Type: message.TypeValidateReply, Status: st})
}

func wrongShard(p, replica int) *message.Message {
	return from(p, replica, message.Message{Type: message.TypeValidateReply, WrongShard: true})
}

func accepted(p, replica int, ok bool, view uint64) *message.Message {
	return from(p, replica, message.Message{Type: message.TypeAcceptReply, OK: ok, View: view})
}

// changed is a coordinator-change ack for view carrying the replica's record,
// refused (recs nil) a refusal that names the higher view promised.
func changed(p, replica int, view uint64, recs ...message.TRecordEntry) *message.Message {
	return from(p, replica, message.Message{Type: message.TypeCoordChangeAck, OK: recs != nil, View: view, Records: recs})
}

// view1 is the first view a recovery by the test round's proposer runs in.
var view1 = MakeView(1, testProposer)

// opOnlyRec is a replica's VALIDATED-OK record of a transaction that is one
// increment: no read set, no write set, and still a body.
var opOnlyRec = message.TRecordEntry{
	Txn:    message.Txn{ID: roundTID, OpSet: []message.OpSetEntry{{Key: "ctr", Kind: message.OpIncrement, Delta: 1}}},
	TS:     timestamp.Timestamp{Time: 7, ClientID: 1},
	Status: vOK,
}

const (
	vOK    = message.StatusValidatedOK
	vAbort = message.StatusValidatedAbort
)

// A step is a reply to fold in, or (msg == nil) a tick at roundT0 + at.
// sends is what the step must make the round ask the driver to broadcast,
// as "validate:<p>" / "accept:<p>" / "coordchange:<p>" / "outcome:<p>" in
// partition order.
type step struct {
	msg   *message.Message
	at    time.Duration
	sends string
}

// verdict is one partition's expected state after the script: "commit",
// "abort" or an error for a decided partition (slow tells fast from slow
// path), "" with the phase for one still open.
type verdict struct {
	phase   phase
	outcome string
	slow    bool
}

func (r *round) takeSends() string {
	var out []string
	for i := range r.parts {
		p := &r.parts[i]
		if !p.Send {
			continue
		}
		p.Send = false
		kind := [...]string{phValidate: "validate", phAccept: "accept", phCoordChange: "coordchange", phDone: "outcome"}[p.phase]
		out = append(out, fmt.Sprintf("%s:%d", kind, p.p))
	}
	return strings.Join(out, " ")
}

func TestRoundSteps(t *testing.T) {
	for _, tc := range []struct {
		name    string
		touched []int
		noFast  bool
		// recovery begins the round in the coordinator change (Resolve, a
		// replica's backup coordinator) instead of the validate.
		recovery bool
		script   []step
		want     []verdict // one per touched partition
		// probe, when set, checks tallies the verdicts do not show.
		probe func(t *testing.T, r *round)
	}{
		{
			name: "fast quorum in every partition, replies interleaved", touched: []int{0, 2},
			script: []step{
				{msg: validated(2, 0, vOK)}, {msg: validated(0, 1, vOK)}, {msg: validated(0, 0, vOK)},
				{msg: validated(2, 2, vOK)}, {msg: validated(2, 1, vOK)}, {msg: validated(0, 2, vOK)},
			},
			want: []verdict{{phDone, "commit", false}, {phDone, "commit", false}},
		},
		{
			name: "majority, grace, accept", touched: []int{1},
			script: []step{
				{msg: validated(1, 0, vOK)}, {msg: validated(1, 2, vOK)},
				{at: 5 * time.Millisecond},                                     // mailbox empty: the grace window opens
				{at: 5*time.Millisecond + roundGrace - 1},                      // still inside it
				{at: 5*time.Millisecond + roundGrace, sends: "accept:1"},       // over: slow path, ACCEPT-COMMIT
				{msg: validated(1, 1, vOK)},                                    // the straggler is too late to matter
				{msg: accepted(1, 0, true, 0)}, {msg: accepted(1, 0, true, 0)}, // a duplicate ack counts once
				{msg: accepted(1, 1, true, 0)},
			},
			want: []verdict{{phDone, "commit", true}},
		},
		{
			name: "an accept-reply from a finalized record decides with its status, not the proposal", touched: []int{1},
			script: []step{
				{msg: validated(1, 0, vOK)}, {msg: validated(1, 2, vOK)},
				{at: 5 * time.Millisecond}, {at: 5*time.Millisecond + roundGrace, sends: "accept:1"}, // ACCEPT-COMMIT
				{msg: accepted(1, 0, true, 0)},
				// An epoch change's merge aborted it meanwhile: the ack is ok and says so.
				{msg: from(1, 2, message.Message{Type: message.TypeAcceptReply, OK: true, Status: message.StatusAborted})},
			},
			want: []verdict{{phDone, "abort", true}},
		},
		{
			name: "fast abort in one partition while the other commits", touched: []int{0, 3},
			script: []step{
				{msg: validated(0, 0, vAbort)}, {msg: validated(3, 0, vOK)}, {msg: validated(0, 1, vAbort)},
				{msg: validated(3, 1, vOK)}, {msg: validated(0, 2, vAbort)}, {msg: validated(3, 2, vOK)},
			},
			want: []verdict{{phDone, "abort", false}, {phDone, "commit", false}},
		},
		{
			name: "split verdicts propose abort once everyone answered", touched: []int{0},
			script: []step{
				{msg: validated(0, 0, vOK)}, {msg: validated(0, 1, vAbort)}, {msg: validated(0, 2, vAbort)},
				{at: 0, sends: "accept:0"},
				{msg: accepted(0, 2, true, 0)}, {msg: accepted(0, 1, true, 0)},
			},
			want: []verdict{{phDone, "abort", true}},
		},
		{
			name: "a finalized record decides at once", touched: []int{0, 1},
			script: []step{
				{msg: validated(0, 1, message.StatusCommitted)}, {msg: validated(1, 2, message.StatusAborted)},
			},
			want: []verdict{{phDone, "commit", false}, {phDone, "abort", false}},
		},
		{
			name: "duplicate replica and stale TID are ignored", touched: []int{0},
			script: []step{
				{msg: validated(0, 0, vOK)}, {msg: validated(0, 0, vOK)},
				{msg: from(0, 1, message.Message{Type: message.TypeValidateReply, Status: vOK, TID: timestamp.TxnID{Seq: 6, ClientID: 1}})},
				{msg: from(0, 2, message.Message{Type: message.TypeMultiReadReply})},
			},
			want: []verdict{{phValidate, "", false}},
			probe: func(t *testing.T, r *round) {
				if p := &r.parts[0]; p.replied != 1 || p.ok != 1 {
					t.Errorf("tally replied=%d ok=%d, want 1 and 1", p.replied, p.ok)
				}
			},
		},
		{
			name: "group A's late replies never count towards group B", touched: []int{0, 1},
			script: []step{
				{msg: validated(0, 0, vOK)}, {msg: validated(0, 1, vOK)}, {msg: validated(0, 2, vOK)}, // A decides
				{msg: validated(1, 0, vOK)}, {msg: validated(1, 1, vOK)},
				{msg: validated(0, 2, vOK)}, // A's replica 2 again: B's replica 2 has not answered
				{at: 0}, {at: roundGrace, sends: "accept:1"},
				{msg: accepted(1, 0, true, 0)},
				{msg: accepted(0, 1, true, 0)}, // an accept-reply out of A: not B's replica 1
				{msg: accepted(2, 1, true, 0)}, // nor one out of an untouched group
			},
			want: []verdict{{phDone, "commit", false}, {phAccept, "", true}},
			probe: func(t *testing.T, r *round) {
				if p := &r.parts[1]; p.replied != 1 {
					t.Errorf("partition 1 counts %d accept acks, want 1", p.replied)
				}
			},
		},
		{
			name: "wrong shard below the rule-4 threshold is a plain abort", touched: []int{0, 1},
			script: []step{
				{msg: wrongShard(1, 0)}, {msg: validated(1, 1, vOK)}, {msg: wrongShard(1, 2)},
				{at: 0}, // everyone answered: 1 OK + 0 silent < 2
				{msg: validated(0, 0, vOK)}, {msg: validated(0, 1, vOK)}, {msg: validated(0, 2, vOK)},
			},
			want: []verdict{{phDone, "commit", false}, {phDone, ErrWrongShard.Error(), false}},
		},
		{
			name: "wrong shard at the threshold goes to recovery", touched: []int{1},
			script: []step{
				{msg: wrongShard(1, 0)},
				{at: roundTimeout, sends: "coordchange:1"}, // deadline: 0 OK + 2 silent replicas >= 2
			},
			want: []verdict{{phCoordChange, "", true}},
			probe: func(t *testing.T, r *round) {
				if !r.redirected || r.parts[0].view != MakeView(1, testProposer) {
					t.Errorf("redirected=%v view=%d, want true and round 1", r.redirected, r.parts[0].view)
				}
			},
		},
		{
			name: "only partitions below a majority are resent", touched: []int{0, 1},
			script: []step{
				{msg: validated(0, 0, vOK)},
				{msg: validated(1, 0, vOK)}, {msg: validated(1, 1, vAbort)},
				{at: 0},                               // partition 1's grace window opens
				{at: roundTimeout, sends: "accept:1"}, // 1 takes the slow path, 0 backs off
				{at: roundTimeout + roundBackoff, sends: "validate:0"}, // 0, and only 0, is resent
				{msg: validated(0, 0, vOK)}, {msg: validated(0, 2, vOK)}, {msg: validated(0, 1, vOK)},
			},
			want: []verdict{{phDone, "commit", false}, {phAccept, "", true}},
			probe: func(t *testing.T, r *round) {
				if p := &r.parts[1]; p.proposal != message.StatusAcceptAbort {
					t.Errorf("partition 1 proposes %v, want ACCEPT-ABORT", p.proposal)
				}
			},
		},
		{
			name: "the retry budget ends in a timeout", touched: []int{2},
			script: []step{
				{at: roundTimeout}, {at: roundTimeout + roundBackoff, sends: "validate:2"},
				{at: 3 * roundTimeout}, {at: 3*roundTimeout + roundBackoff, sends: "validate:2"},
				{at: 5 * roundTimeout},
			},
			want: []verdict{{phDone, ErrTimeout.Error(), false}},
		},
		{
			name: "a superseded accept goes to recovery above the view it lost to", touched: []int{0},
			script: []step{
				{msg: validated(0, 0, vOK)}, {msg: validated(0, 1, vOK)}, {at: 0}, {at: roundGrace, sends: "accept:0"},
				{msg: accepted(0, 0, false, MakeView(1, 2))}, {msg: accepted(0, 1, false, MakeView(3, 2))},
				{at: roundGrace + roundTimeout, sends: "coordchange:0"},
			},
			want: []verdict{{phCoordChange, "", true}},
			probe: func(t *testing.T, r *round) {
				if v := r.parts[0].view; v != MakeView(4, testProposer) {
					t.Errorf("recovering in view %d, want %d", v, MakeView(4, testProposer))
				}
			},
		},
		{
			name: "without the fast path a full OK house still takes the accept round", touched: []int{0}, noFast: true,
			script: []step{
				{msg: validated(0, 0, vOK)}, {msg: validated(0, 1, vOK)}, {msg: validated(0, 2, vOK)},
				{at: 0, sends: "accept:0"},
			},
			want: []verdict{{phAccept, "", true}},
		},
		{
			name: "recovery: a final record among a majority's is told, not proposed", touched: []int{2}, recovery: true,
			script: []step{
				{msg: changed(2, 0, view1, rec(vOK, 0))}, {msg: changed(2, 1, view1, rec(message.StatusCommitted, 0))},
				{at: 0, sends: "outcome:2"},
			},
			want: []verdict{{phDone, "commit", true}},
		},
		{
			name: "recovery: the accepted proposal with the latest view wins, and is accepted in the new view", touched: []int{0}, recovery: true,
			script: []step{
				{msg: changed(0, 0, view1, rec(message.StatusAcceptCommit, 2))},
				{msg: changed(0, 0, view1, rec(message.StatusAcceptCommit, 2))}, // a duplicate ack counts once
				{msg: changed(0, 2, view1, rec(message.StatusAcceptAbort, 7))},
				{at: 0, sends: "accept:0"},
				{msg: accepted(0, 0, true, 0)}, {msg: accepted(0, 1, true, 0)}, // acks of the original coordinator's view 0
				{msg: accepted(0, 0, true, view1)},
				{msg: accepted(0, 1, true, view1), sends: "outcome:0"},
			},
			want: []verdict{{phDone, "abort", true}},
		},
		{
			name: "recovery: a refusal bumps the view, and the next coordinator change waits out the backoff", touched: []int{1}, recovery: true,
			script: []step{
				{msg: changed(1, 0, MakeView(5, 2))}, {msg: changed(1, 1, view1, rec(vOK, 0))},
				{at: roundTimeout}, // no majority: outbid the view that refused us, but not in lockstep
				{at: roundTimeout + roundBackoff, sends: "coordchange:1"},
				{msg: changed(1, 1, view1, rec(vOK, 0))}, // the first attempt's view
			},
			want: []verdict{{phCoordChange, "", true}},
			probe: func(t *testing.T, r *round) {
				if p := &r.parts[0]; p.view != MakeView(6, testProposer) || p.Attempt != 1 || p.replied != 0 {
					t.Errorf("view %d attempt %d replied %d, want round 6, 1 and 0", p.view, p.Attempt, p.replied)
				}
			},
		},
		{
			name: "recovery: a starved accept starts over above its own view, inside one budget", touched: []int{0}, recovery: true,
			script: []step{
				{msg: changed(0, 0, view1, rec(vOK, 0))}, {msg: changed(0, 1, view1, rec(vOK, 0))}, {at: 0, sends: "accept:0"},
				{msg: accepted(0, 2, true, view1)},
				{at: roundTimeout}, {at: roundTimeout + roundBackoff, sends: "coordchange:0"}, // round 2, resend 1
				{at: 3 * roundTimeout}, {at: 3*roundTimeout + roundBackoff, sends: "coordchange:0"}, // round 3, resend 2
				{at: 5 * roundTimeout},
			},
			want: []verdict{{phDone, ErrTimeout.Error(), true}},
			probe: func(t *testing.T, r *round) {
				if v := r.parts[0].view; v != MakeView(4, testProposer) {
					t.Errorf("gave up in view %d, want round 4", v)
				}
			},
		},
		{
			name: "recovery: an increment-only transaction is re-proposed with its body", touched: []int{1}, recovery: true,
			script: []step{
				{msg: changed(1, 2, view1, rec(message.StatusNone, 0))}, // this replica missed the validate
				{msg: changed(1, 0, view1, opOnlyRec)},
				{msg: changed(1, 1, view1, opOnlyRec)},
				{at: 0, sends: "accept:1"},
			},
			want: []verdict{{phAccept, "", true}},
			probe: func(t *testing.T, r *round) {
				if p := &r.parts[0]; len(p.txn.OpSet) != 1 || p.txn.OpSet[0].Key != "ctr" || p.ts != opOnlyRec.TS || p.proposal != message.StatusAcceptCommit {
					t.Errorf("accept proposes %v at %v with body %+v, want ACCEPT-COMMIT at %v carrying the increment", p.proposal, p.ts, p.txn, opOnlyRec.TS)
				}
			},
		},
		{
			name: "recovery: two partitions side by side, and group A's late ack never counts for B", touched: []int{0, 3}, recovery: true,
			script: []step{
				{msg: changed(0, 0, view1, rec(vAbort, 0))}, {msg: changed(3, 0, view1, rec(vOK, 0))},
				{msg: changed(0, 1, view1, rec(vAbort, 0))}, // A has its majority
				{msg: changed(0, 2, view1, rec(vAbort, 0))}, // A's replica 2: B's has not answered
				{at: 0, sends: "accept:0"},
				{msg: accepted(0, 0, true, view1)}, {msg: accepted(0, 1, true, view1), sends: "outcome:0"},
				{msg: accepted(0, 2, true, view1)}, // nor does A's accept-reply count in B's coordinator change
			},
			want: []verdict{{phDone, "abort", true}, {phCoordChange, "", true}},
			probe: func(t *testing.T, r *round) {
				if p := &r.parts[1]; p.replied != 1 || len(p.records) != 1 {
					t.Errorf("partition 3 counts %d acks and %d records, want 1 and 1", p.replied, len(p.records))
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRound(tc.touched...)
			r.cfg.DisableFastPath = tc.noFast
			kind := "validate"
			if tc.recovery {
				r.beginRecovery(tc.touched, roundTID, 0, 0, roundT0)
				kind = "coordchange"
			}
			var first []string
			for _, p := range tc.touched {
				first = append(first, fmt.Sprintf("%s:%d", kind, p))
			}
			if got := r.takeSends(); got != strings.Join(first, " ") {
				t.Fatalf("begin asked for %q, want every touched partition's %s", got, kind)
			}
			for i, s := range tc.script {
				if s.msg != nil {
					r.Reply(s.msg)
				} else {
					r.Tick(roundT0.Add(s.at))
				}
				if got := r.takeSends(); got != s.sends {
					t.Fatalf("step %d asked for %q, want %q", i, got, s.sends)
				}
			}
			open := 0
			for i, w := range tc.want {
				p := &r.parts[i]
				got := ""
				switch {
				case p.phase != phDone:
					open++
				case p.err != nil:
					got = p.err.Error()
				case p.commit:
					got = "commit"
				default:
					got = "abort"
				}
				if p.phase != w.phase || got != w.outcome || p.slow != w.slow {
					t.Errorf("partition %d: phase %d outcome %q slow %v, want %d %q %v", p.p, p.phase, got, p.slow, w.phase, w.outcome, w.slow)
				}
			}
			if r.open != open {
				t.Errorf("round counts %d open partitions, %d are", r.open, open)
			}
			if tc.probe != nil {
				tc.probe(t, r)
			}
		})
	}
}

// TestRoundWakeIsEarliestWait pins what the driver parks on: the earliest
// deadline, grace end or backoff end among the partitions still waiting.
func TestRoundWakeIsEarliestWait(t *testing.T) {
	r := newTestRound(0, 1)
	r.takeSends()
	if !r.wake.Equal(roundT0.Add(roundTimeout)) {
		t.Fatalf("wake after begin %v, want the deadline", r.wake.Sub(roundT0))
	}
	r.Reply(validated(1, 0, vOK))
	r.Reply(validated(1, 1, vOK))
	if !r.wake.IsZero() {
		t.Fatal("a majority without a decision must make tick due before the driver parks")
	}
	r.Tick(roundT0.Add(time.Millisecond))
	if want := roundT0.Add(time.Millisecond + roundGrace); !r.wake.Equal(want) {
		t.Fatalf("wake %v, want the grace end %v", r.wake.Sub(roundT0), want.Sub(roundT0))
	}
	r.Reply(validated(1, 2, vOK)) // decided: only partition 0's deadline is left
	r.Tick(roundT0.Add(2 * time.Millisecond))
	if !r.wake.Equal(roundT0.Add(roundTimeout)) {
		t.Fatalf("wake %v, want partition 0's deadline", r.wake.Sub(roundT0))
	}
}

// TestRecovererRunsUnderThePolicyItIsGiven: a backup coordinator's requests
// carry the deadline, the budget and the backoff of the deployment's policy,
// not the coordinator defaults (100 ms × 10) every sweeper used to run on.
func TestRecovererRunsUnderThePolicyItIsGiven(t *testing.T) {
	pol := drive.Policy{Timeout: 5 * time.Millisecond, Retries: 2, BackoffBase: time.Microsecond, BackoffMax: time.Microsecond}
	rec, err := NewRecoverer(&scriptNet{onSend: func(message.Addr, *message.Message) {}}, roundTopo, roundTopo.RecovererAddr(0, 0), 0, pol)
	if err != nil {
		t.Fatal(err)
	}
	r := &rec.round
	r.beginRecovery([]int{0}, roundTID, 0, 0, roundT0)
	if _, wake := r.Pending(); wake.Sub(roundT0) != pol.Timeout {
		t.Fatalf("the recoverer's request deadline is %v from its start, want the policy's %v", wake.Sub(roundT0), pol.Timeout)
	}
	// Nobody answers: every deadline is followed by a backoff and a resend,
	// Retries times, and then the recovery gives up.
	var sends []string
	for open, wake := r.Pending(); open > 0; open, wake = r.Pending() {
		if wake.Sub(roundT0) > time.Second {
			t.Fatal("the recovery outlived any budget the policy could give it")
		}
		r.Tick(wake)
		if s := r.takeSends(); s != "" {
			sends = append(sends, s)
		}
	}
	if got := strings.Join(sends, " "); got != "coordchange:0 coordchange:0 coordchange:0" || !errors.Is(r.parts[0].err, ErrTimeout) {
		t.Fatalf("sent %q, err %v; want the request, %d resends and ErrTimeout", got, r.parts[0].err, pol.Retries)
	}
}

// scriptNet is a transport.Network without goroutines, sockets or loss:
// Listen hands out endpoints whose sends go to onSend, synchronously and
// stamped with the sender's address as a transport stamps them, and deliver
// is the handler a reply is to be pushed into. bound lists what was bound.
type scriptNet struct {
	deliver transport.Handler
	onSend  func(dst message.Addr, m *message.Message)
	bound   []message.Addr
}

type scriptEp struct {
	net  *scriptNet
	addr message.Addr
}

func (n *scriptNet) Listen(addr message.Addr, h transport.Handler) (transport.Endpoint, error) {
	n.deliver, n.bound = h, append(n.bound, addr)
	return &scriptEp{net: n, addr: addr}, nil
}
func (n *scriptNet) Close() error       { return nil }
func (n *scriptNet) Clock() clock.Clock { return scriptClock }

// scriptClock is every scripted network's: the scripts answer at once, so no
// test here waits on it.
var scriptClock = clock.NewReal()

func (e *scriptEp) Addr() message.Addr { return e.addr }
func (e *scriptEp) Send(dst message.Addr, m *message.Message) error {
	m.Src = e.addr
	e.net.onSend(dst, m)
	return nil
}
func (e *scriptEp) SendBatch(batch []transport.Outgoing) error {
	for _, o := range batch {
		e.Send(o.Dst, o.M)
	}
	return nil
}
func (e *scriptEp) Flush() error { return nil }
func (e *scriptEp) Close() error { return nil }

func scriptedConfig(net *scriptNet) Config {
	return Config{
		Topo: roundTopo, ClientID: 1, Net: net, Clock: clock.NewManual(1),
		ShardMap: shardmap.NewCache(shardmap.NewSource(shardmap.New(roundTopo.Partitions))),
	}
}

func newScriptedCoordinator(t *testing.T, net *scriptNet) *Coordinator {
	t.Helper()
	c, err := New(scriptedConfig(net))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// keysOn returns one key owned by each of the given partitions.
func keysOn(c *Coordinator, parts ...int) []string {
	keys := make([]string, len(parts))
	for i, p := range parts {
		for n := 0; keys[i] == ""; n++ {
			if k := fmt.Sprintf("%d-key", n); c.partitionFor(k) == p {
				keys[i] = k
			}
		}
	}
	return keys
}

// TestReadManyKeepsRepliesInAnyOrder: the reply of partition q that arrives
// while p's is outstanding is kept, not dropped as stale, so a two-partition
// multi-read whose replies come back in the opposite of send order finishes
// without a resend — and a reply of a third group with the same Seq, or of
// an earlier round, is not taken for either.
func TestReadManyKeepsRepliesInAnyOrder(t *testing.T) {
	net := &scriptNet{}
	c := newScriptedCoordinator(t, net)
	keys := keysOn(c, 1, 3) // sent in ascending partition order: 1, then 3
	var reqs []*message.Message
	net.onSend = func(dst message.Addr, m *message.Message) {
		if m.Type != message.TypeMultiRead {
			t.Errorf("unexpected %v", m.Type)
		}
		m.Src = dst // keep the group the request went to
		if reqs = append(reqs, m); len(reqs) < 2 {
			return
		}
		push := func(p int, seq uint64, val string) {
			net.deliver(&message.Message{
				Type: message.TypeMultiReadReply, Seq: seq, Src: roundTopo.ReplicaAddr(p, 0, 0),
				Reads: []message.ReadResult{{Value: []byte(val), OK: true}},
			})
		}
		push(2, m.Seq, "other group")   // an untouched partition
		push(3, m.Seq-1, "other round") // partition 3, but an earlier Seq
		push(3, m.Seq, "three")         // the later request's answer first
		push(1, m.Seq, "one")
	}
	res, err := c.ReadMany(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("%d multi-reads sent, want 2 and no resend", len(reqs))
	}
	if string(res[0].Value) != "one" || string(res[1].Value) != "three" {
		t.Fatalf("results %q %q, want one three", res[0].Value, res[1].Value)
	}
}

// TestCrossShardCommitOnCallerGoroutine drives a whole three-partition commit
// through the blocking driver with replicas that answer synchronously: every
// reply is queued before the collector looks, so the commit finishes without
// parking (a round that did park would sit out its 100 ms deadlines and
// report ErrTimeout).
func TestCrossShardCommitOnCallerGoroutine(t *testing.T) {
	net := &scriptNet{}
	c := newScriptedCoordinator(t, net)
	keys := keysOn(c, 0, 2, 3)
	verdicts := map[int]message.Status{0: vOK, 2: vOK, 3: vOK}
	var outcomes []message.Status
	net.onSend = func(dst message.Addr, m *message.Message) {
		p := roundTopo.PartitionOf(dst.Node)
		switch m.Type {
		case message.TypeValidate:
			if len(m.Txn.WriteSet) != 1 || c.partitionFor(m.Txn.WriteSet[0].Key) != p {
				t.Errorf("partition %d was sent %+v", p, m.Txn.WriteSet)
			}
			net.deliver(&message.Message{
				Type: message.TypeValidateReply, TID: m.TID, Status: verdicts[p],
				Src: dst, ReplicaID: dst.Node % uint32(roundTopo.Replicas),
			})
		case message.TypeCommit:
			outcomes = append(outcomes, m.Status)
		default:
			t.Errorf("unexpected %v", m.Type)
		}
	}
	commit := func() (bool, error) {
		outcomes = outcomes[:0]
		txn := c.Begin()
		for _, k := range keys {
			txn.Write(k, []byte("v"))
		}
		return txn.Commit()
	}
	if ok, err := commit(); err != nil || !ok {
		t.Fatalf("commit: ok=%v err=%v", ok, err)
	}
	if len(outcomes) != 9 || outcomes[0] != message.StatusCommitted {
		t.Fatalf("outcome broadcast %v, want COMMITTED to 3 groups of 3", outcomes)
	}
	verdicts[2] = vAbort
	if ok, err := commit(); err != nil || ok {
		t.Fatalf("commit with one aborting partition: ok=%v err=%v", ok, err)
	}
	if len(outcomes) != 9 || outcomes[0] != message.StatusAborted {
		t.Fatalf("outcome broadcast %v, want ABORTED to 3 groups of 3", outcomes)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := c.Run(ctx, func(txn *Txn) error { txn.Write(keys[0], nil); return nil })
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a cancelled context: %v", err)
	}
}

// TestOneAddressCarriesEveryPartition: a coordinator binds its client address
// and nothing else, every request of every partition — validates, outcome
// broadcasts, multi-reads and the one-key read — leaves from it, and a reply
// folds into the tally of the partition its sender's node belongs to: the
// replicas of all four groups answer under the same three ReplicaIDs, so
// nothing but PartitionOf(Src.Node) tells them apart.
func TestOneAddressCarriesEveryPartition(t *testing.T) {
	net := &scriptNet{}
	c := newScriptedCoordinator(t, net)
	self := roundTopo.ClientAddr(c.cfg.ClientID)
	if len(net.bound) != 1 || net.bound[0] != self {
		t.Fatalf("coordinator bound %v, want only %v", net.bound, self)
	}
	keys := keysOn(c, 0, 1, 2, 3)
	sent := map[message.Type]map[int]int{} // requests by type and partition
	net.onSend = func(dst message.Addr, m *message.Message) {
		p, replica := roundTopo.PartitionOf(dst.Node), dst.Node%uint32(roundTopo.Replicas)
		if m.Src != self {
			t.Errorf("%v for partition %d left from %v, want %v", m.Type, p, m.Src, self)
		}
		if sent[m.Type] == nil {
			sent[m.Type] = map[int]int{}
		}
		sent[m.Type][p]++
		reply := message.Message{Src: dst, ReplicaID: replica, TID: m.TID, Seq: m.Seq}
		named := []byte(fmt.Sprint("from group ", p))
		switch m.Type {
		case message.TypeValidate:
			reply.Type, reply.Status = message.TypeValidateReply, vOK
			if p == 2 {
				reply.Status = vAbort // one group disagrees, under the same ReplicaIDs
			}
		case message.TypeMultiRead:
			reply.Type, reply.Reads = message.TypeMultiReadReply, []message.ReadResult{{Value: named, OK: true}}
		default:
			return
		}
		net.deliver(&reply)
	}

	txn := c.Begin()
	for _, k := range keys {
		txn.Write(k, []byte("v"))
	}
	if ok, err := txn.Commit(); err != nil || ok {
		t.Fatalf("commit with group 2 aborting: ok=%v err=%v", ok, err)
	}
	for i := range c.round.parts {
		p, n := &c.round.parts[i], roundTopo.Replicas
		if want := [2]int{n, 0}; p.p != 2 && [2]int{p.ok, p.abort} != want || p.p == 2 && [2]int{p.abort, p.ok} != want {
			t.Errorf("partition %d tallied %d OK and %d ABORT, want its own group's %d verdicts only", p.p, p.ok, p.abort, n)
		}
	}
	res, err := c.ReadMany(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for p, r := range res {
		if want := fmt.Sprint("from group ", p); string(r.Value) != want {
			t.Errorf("key of partition %d read %q, want %q", p, r.Value, want)
		}
	}
	for typ, want := range map[message.Type]int{message.TypeValidate: 3, message.TypeCommit: 3, message.TypeMultiRead: 1} {
		for p := 0; p < roundTopo.Partitions; p++ {
			if got := sent[typ][p]; got != want {
				t.Errorf("partition %d was sent %d %v, want %d", p, got, typ, want)
			}
		}
	}
	if val, _, _, err := c.Read(context.Background(), keys[3]); err != nil || string(val) != "from group 3" {
		t.Errorf("one-key read of partition 3: %q, %v", val, err)
	}
	if got := sent[message.TypeMultiRead]; got[3] != 2 || got[0]+got[1]+got[2] != 3 {
		t.Errorf("after the one-key read, multi-reads sent %v, want one more to partition 3", got)
	}
}

// TestSessionRoutesEveryReplyToTheIssuingWorker: a session's one endpoint
// delivers through one router, which hands a reply to the worker named by its
// transaction id or read Seq — whichever group sent it — so a reply for
// worker 1 that lands in the middle of worker 0's cross-shard commit waits in
// worker 1's mailbox and counts for nobody else.
func TestSessionRoutesEveryReplyToTheIssuingWorker(t *testing.T) {
	net := &scriptNet{}
	s, err := NewSession(scriptedConfig(net), 2)
	if err != nil {
		t.Fatal(err)
	}
	w0, w1 := s.Worker(0), s.Worker(1)
	keys := keysOn(w0, 1, 2)
	foreign := timestamp.TxnID{Seq: 1, ClientID: w1.cfg.ClientID}
	net.onSend = func(dst message.Addr, m *message.Message) {
		if m.Type != message.TypeValidate {
			return
		}
		reply := message.Message{Type: message.TypeValidateReply, Status: vOK, Src: dst, ReplicaID: dst.Node % uint32(roundTopo.Replicas)}
		mine, other := reply, reply
		mine.TID, other.TID = m.TID, foreign
		net.deliver(&other)
		net.deliver(&mine)
	}
	txn := w0.Begin()
	for _, k := range keys {
		txn.Write(k, []byte("v"))
	}
	if ok, err := txn.Commit(); err != nil || !ok {
		t.Fatalf("worker 0 commit: ok=%v err=%v", ok, err)
	}
	if got := len(w1.In.C); got != 6 {
		t.Fatalf("worker 1's mailbox holds %d replies, want the 6 addressed to it", got)
	}
	if got := len(w0.In.C); got != 0 {
		t.Fatalf("worker 0's mailbox still holds %d replies", got)
	}
	net.deliver(&message.Message{Type: message.TypeMultiReadReply, Seq: w1.reads.seq + 1})
	net.deliver(&message.Message{Type: message.TypeMultiReadReply, Seq: 7 << readSeqShift}) // no such worker
	if got := len(w1.In.C); got != 7 {
		t.Fatalf("worker 1's mailbox holds %d replies after a read reply by Seq, want 7", got)
	}
}

// TestRunDeadlineBoundsRecovery: the context given to Run reaches a commit
// that has gone into coordinator recovery. One replica refuses the validate as
// wrong-shard and the other two validate OK, which is the rule-4 threshold, so
// the partition goes to the coordinator change — and no replica answers that.
// With 100 ms attempts and 10 resends the recovery alone could run a second
// and more; under a 30 ms deadline Run must be back at once, its outcome
// unknown and the partition left for Resolve.
func TestRunDeadlineBoundsRecovery(t *testing.T) {
	net := &scriptNet{}
	c := newScriptedCoordinator(t, net)
	key := keysOn(c, 2)[0]
	changes := 0
	net.onSend = func(dst message.Addr, m *message.Message) {
		switch replica := dst.Node % uint32(roundTopo.Replicas); m.Type {
		case message.TypeValidate:
			net.deliver(&message.Message{
				Type: message.TypeValidateReply, TID: m.TID, Status: vOK, WrongShard: replica == 0,
				Src: dst, ReplicaID: replica,
			})
		case message.TypeCoordChange:
			changes++
		default:
			t.Errorf("unexpected %v", m.Type)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	var txn *Txn
	start := time.Now()
	err := c.Run(ctx, func(tx *Txn) error {
		txn = tx
		tx.Write(key, []byte("v"))
		return nil
	})
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Errorf("Run under a 30ms deadline returned after %v", took)
	}
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Run error %v, want ErrTimeout wrapping context.DeadlineExceeded", err)
	}
	if changes != roundTopo.Replicas {
		t.Errorf("%d coordinator-change messages sent, want one broadcast", changes)
	}
	if len(txn.unresolved) != 1 || txn.unresolved[0] != 2 {
		t.Errorf("unresolved partitions %v, want [2]", txn.unresolved)
	}
}
