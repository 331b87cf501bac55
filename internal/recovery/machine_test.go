package recovery

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"meerkat/internal/drive"
	"meerkat/internal/message"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
	"meerkat/internal/vstore"
)

// The epoch change and the state transfer are step machines, so their logic
// is tested the way the coordinator's rounds are (TestRoundSteps): a script of
// replies and instants is fed to Reply and Tick, and after every step Perform
// runs against an endpoint that only records what it was asked to send. No
// network, no goroutine, no clock.

var (
	stepTopo = topo.Topology{Partitions: 1, Replicas: 3, Cores: 2}
	stepT0   = time.Unix(1_000_000, 0)
)

const (
	stepTimeout = 100 * time.Millisecond
	stepGrace   = stepTimeout / 10
	stepBackoff = time.Millisecond // BackoffMax: every backoff is over by then
	stepEpoch   = 7
	allCores    = "0.0,0.1,1.0,1.1,2.0,2.1"
)

var stepPolicy = drive.Policy{Timeout: stepTimeout, Retries: 2, BackoffBase: stepBackoff, BackoffMax: stepBackoff}

// recEndpoint records, per message type, the destinations it was handed.
type recEndpoint struct {
	sent   []string
	closed bool
}

func (e *recEndpoint) Addr() message.Addr { return message.Addr{} }
func (e *recEndpoint) Flush() error       { return nil }
func (e *recEndpoint) Close() error       { return nil }

func (e *recEndpoint) Send(dst message.Addr, m *message.Message) error {
	return e.SendBatch([]transport.Outgoing{{Dst: dst, M: m}})
}

func (e *recEndpoint) SendBatch(batch []transport.Outgoing) error {
	if e.closed {
		return transport.ErrClosed
	}
	kind := map[message.Type]string{
		message.TypeEpochChange: "change", message.TypeEpochChangeComplete: "complete", message.TypeStateRequest: "state",
	}[batch[0].M.Type]
	var dsts []string
	for _, o := range batch {
		if o.M.Type == message.TypeStateRequest {
			dsts = append(dsts, fmt.Sprint(o.M.Seq))
		} else {
			dsts = append(dsts, fmt.Sprintf("%d.%d", o.Dst.Node, o.Dst.Core))
		}
		message.ReleaseMessage(o.M)
	}
	e.sent = append(e.sent, kind+":"+strings.Join(dsts, ","))
	return nil
}

func (e *recEndpoint) take() string {
	out := strings.Join(e.sent, " ")
	e.sent = e.sent[:0]
	return out
}

// A step is a reply to fold in, or (msg == nil) a tick at stepT0 + at. sends
// is what the step must make Perform send: "change:<replica.core,...>",
// "complete:<...>" or "state:<shard>".
type step struct {
	msg   *message.Message
	at    time.Duration
	sends string
}

// ack is core (r, c)'s epoch-change-ack: whole says whether its snapshot is
// its whole record.
func ack(r, c int, whole bool, recs ...message.TRecordEntry) *message.Message {
	return &message.Message{Type: message.TypeEpochChangeAck, Epoch: stepEpoch, OK: whole, ReplicaID: uint32(r), CoreID: uint32(c), Records: recs}
}

// back is core (r, c)'s epoch-change-complete-ack.
func back(r, c int) *message.Message {
	return &message.Message{Type: message.TypeEpochChangeCompleteAck, Epoch: stepEpoch, ReplicaID: uint32(r), CoreID: uint32(c)}
}

// acks is both cores of every listed replica answering whole and empty.
func acks(replicas ...int) (out []step) {
	for _, r := range replicas {
		out = append(out, step{msg: ack(r, 0, true)}, step{msg: ack(r, 1, true)})
	}
	return out
}

func backs(replicas ...int) (out []step) {
	for _, r := range replicas {
		out = append(out, step{msg: back(r, 0)}, step{msg: back(r, 1)})
	}
	return out
}

func script(parts ...[]step) (out []step) {
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func TestEpochChangeSteps(t *testing.T) {
	vOK, committed := message.StatusValidatedOK, message.StatusCommitted
	begin := step{at: 0, sends: "change:" + allCores}
	for _, tc := range []struct {
		name    string
		script  []step
		closed  bool   // the endpoint is shut
		open    bool   // the change must still be pending after the script
		err     error  // else: why it ended
		merged  string // "tid:status ..." of the merged trecord, "" when there was no merge
		resumed int    // probe: replicas counted as fully resumed
	}{
		{
			name: "every replica answers: merge at once, install, every core resumes",
			script: script([]step{begin,
				{msg: ack(2, 1, true)}, {msg: ack(0, 0, true, entry(1, committed))}, {msg: ack(1, 1, true)},
				{msg: ack(2, 0, true, entry(1, vOK))}, {msg: ack(0, 1, true, entry(2, vOK))}, {msg: ack(1, 0, true, entry(1, vOK))},
				{at: 0, sends: "complete:" + allCores}},
				backs(1, 0, 2)),
			merged: "1:COMMITTED 2:ABORTED", resumed: 3,
		},
		{
			name: "duplicates, a stale epoch and a foreign core are ignored",
			script: []step{begin,
				{msg: ack(0, 0, true, entry(1, vOK))}, {msg: ack(0, 0, true, entry(1, committed))}, // the first snapshot stands
				{msg: &message.Message{Type: message.TypeEpochChangeAck, Epoch: stepEpoch - 1, OK: true, ReplicaID: 1}},
				{msg: &message.Message{Type: message.TypeEpochChangeAck, Epoch: stepEpoch - 1, OK: true, ReplicaID: 1, CoreID: 1}},
				{msg: ack(3, 0, true)}, {msg: ack(1, 2, true)},
				{msg: back(0, 0)}, // not this phase's
				{msg: ack(0, 1, true)},
				{at: 5 * time.Millisecond}, // one replica: no quorum, no grace
			},
			open: true,
		},
		{
			name: "a replica with one core missing does not count; only silent cores are asked again",
			script: script(
				[]step{begin}, acks(0), []step{{msg: ack(1, 0, true)},
					{at: 5 * time.Millisecond},
					{at: stepTimeout}, // deadline: back off
					{at: stepTimeout + stepBackoff, sends: "change:1.1,2.0,2.1"},
					{msg: ack(1, 1, true)},
					{at: stepTimeout + stepBackoff}, // a majority of whole records: grace
					{at: stepTimeout + stepBackoff + stepGrace, sends: "complete:" + allCores}, // over: merge
				}),
			open: true, merged: "",
		},
		{
			name: "a no-evidence ack does not count towards the majority and is not merged",
			script: script([]step{begin,
				{msg: ack(2, 0, false, entry(9, committed))}, {msg: ack(2, 1, false)},
				{msg: ack(0, 0, true, entry(1, vOK))}, {msg: ack(0, 1, true)},
				{at: 5 * time.Millisecond},             // two replicas answered, one whole record: not a quorum
				{at: 5*time.Millisecond + 2*stepGrace}, // and no grace window was running
				{msg: ack(1, 0, true, entry(1, vOK))}, {msg: ack(1, 1, true)},
				{at: 30 * time.Millisecond, sends: "complete:" + allCores}}, // everyone answered
				backs(0, 1, 2)),
			merged: "1:COMMITTED", resumed: 3,
		},
		{
			name: "one whole record is no merge once everyone answered, however many answered",
			script: []step{begin,
				{msg: ack(0, 0, true, entry(1, vOK))}, {msg: ack(0, 1, true)},
				{msg: ack(1, 0, false)}, {msg: ack(1, 1, true)}, // one core without evidence taints the replica
				{msg: ack(2, 0, false)}, {msg: ack(2, 1, false)},
				{at: time.Millisecond},
			},
			err: ErrNoQuorum,
		},
		{
			name: "majority, grace, merge; a majority resumed at the deadline ends it",
			script: script([]step{begin}, acks(0, 1), []step{
				{at: 5 * time.Millisecond},                                          // mailbox empty: the grace window opens
				{at: 5*time.Millisecond + stepGrace - 1},                            // still inside it
				{at: 5*time.Millisecond + stepGrace, sends: "complete:" + allCores}, // over
				{msg: ack(2, 0, true, entry(1, committed))},                         // the straggler is too late to matter
			}, backs(0, 1), []step{
				{at: 5*time.Millisecond + stepGrace + stepTimeout - 1},
				{at: 5*time.Millisecond + stepGrace + stepTimeout},
			}),
			merged: "", resumed: 2,
		},
		{
			name: "the budget is spent on a recovering replica's empty table and one whole record: no quorum, never a merge",
			script: script([]step{begin}, acks(1), []step{
				{msg: ack(2, 0, false)}, {msg: ack(2, 1, false)},
				{at: stepTimeout},
				{at: stepTimeout + stepBackoff, sends: "change:0.0,0.1"},
				{at: 2*stepTimeout + stepBackoff},
				{at: 2*stepTimeout + 2*stepBackoff, sends: "change:0.0,0.1"},
				{at: 3*stepTimeout + 2*stepBackoff}, // Retries = 2 resends are spent
			}),
			err: ErrNoQuorum,
		},
		{
			name: "phase 2 resends to silent cores and fails without a majority resumed; the merge stands",
			script: script([]step{begin,
				{msg: ack(0, 0, true, entry(1, committed))}, {msg: ack(0, 1, true)}}, acks(1, 2), []step{
				{at: 0, sends: "complete:" + allCores}},
				backs(0), []step{{msg: back(1, 1)},
					{at: stepTimeout},
					{at: stepTimeout + stepBackoff, sends: "complete:1.0,2.0,2.1"},
					{at: 2*stepTimeout + stepBackoff},
					{at: 2*stepTimeout + 2*stepBackoff, sends: "complete:1.0,2.0,2.1"},
					{at: 3*stepTimeout + 2*stepBackoff},
				}),
			err: ErrNoQuorum, merged: "1:COMMITTED", resumed: 1,
		},
		{
			name: "a shut endpoint ends it", closed: true,
			script: []step{{at: 0}},
			err:    transport.ErrClosed,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ep := &recEndpoint{closed: tc.closed}
			ec := NewEpochChange(&drive.Link{Ep: ep}, stepTopo, 0, stepEpoch, stepPolicy, nil)
			for i, s := range tc.script {
				if s.msg != nil {
					ec.Reply(s.msg)
				} else {
					ec.Tick(stepT0.Add(s.at))
				}
				ec.Perform()
				if got := ep.take(); got != s.sends {
					t.Fatalf("step %d sent %q, want %q", i, got, s.sends)
				}
			}
			open, _ := ec.Pending()
			merged, err := ec.Result()
			if (open == 1) != tc.open || !errors.Is(err, tc.err) || (tc.err == nil) != (err == nil) {
				t.Fatalf("open %d err %v, want open %v err %v", open, err, tc.open, tc.err)
			}
			var got []string
			for _, e := range merged {
				got = append(got, fmt.Sprintf("%d:%v", e.Txn.ID.Seq, e.Status))
			}
			if s := strings.Join(got, " "); s != tc.merged {
				t.Errorf("merged %q, want %q", s, tc.merged)
			}
			if _, _, n := ec.count(); n != tc.resumed {
				t.Errorf("%d replicas resumed, want %d", n, tc.resumed)
			}
		})
	}
}

// TestEpochChangeAckOrders feeds the six phase-1 acks in every order: the
// collect closes on the last of them and never before, and the merge is the
// same whichever order they came in.
func TestEpochChangeAckOrders(t *testing.T) {
	acks := []func() *message.Message{
		func() *message.Message { return ack(0, 0, true, entry(1, message.StatusCommitted)) },
		func() *message.Message { return ack(0, 1, true, entry(2, message.StatusValidatedOK)) },
		func() *message.Message { return ack(1, 0, true, entry(1, message.StatusValidatedOK)) },
		func() *message.Message { return ack(1, 1, true, entry(2, message.StatusValidatedOK)) },
		func() *message.Message { return ack(2, 0, false, entry(3, message.StatusCommitted)) },
		func() *message.Message { return ack(2, 1, false) },
	}
	var perm func(order []int, rest []int)
	orders := 0
	perm = func(order, rest []int) {
		if len(rest) > 0 {
			for i := range rest {
				next := append(append([]int{}, rest[:i]...), rest[i+1:]...)
				perm(append(order, rest[i]), next)
			}
			return
		}
		orders++
		ep := &recEndpoint{}
		ec := NewEpochChange(&drive.Link{Ep: ep}, stepTopo, 0, stepEpoch, stepPolicy, nil)
		ec.Tick(stepT0)
		ec.Perform()
		ep.take()
		for i, a := range order {
			ec.Reply(acks[a]())
			if _, wake := ec.Pending(); i < len(order)-1 && ec.phase != ecCollect {
				t.Fatalf("order %v: left the collect after %d acks (wake %v)", order, i+1, wake)
			}
		}
		// Whether a majority came in early or late, the driver's next tick
		// finds everyone answered and merges the two whole-record replicas.
		ec.Tick(stepT0.Add(time.Millisecond))
		if len(ec.merged) != 2 || statusOf(ec.merged, tid(1)) != message.StatusCommitted ||
			statusOf(ec.merged, tid(2)) != message.StatusCommitted || statusOf(ec.merged, tid(3)) != message.StatusNone {
			t.Fatalf("order %v merged %+v", order, ec.merged)
		}
	}
	perm(nil, []int{0, 1, 2, 3, 4, 5})
	if orders != 720 {
		t.Fatalf("ran %d orders, want 720", orders)
	}
}

// shard is the donor's reply for one shard: more says whether others remain.
func shard(seq uint64, more bool, keys ...string) *message.Message {
	m := &message.Message{Type: message.TypeStateReply, Seq: seq, OK: more}
	for _, k := range keys {
		m.State = append(m.State, message.KeyState{Key: k, Value: []byte("v-" + k), WTS: ts(int64(seq) + 1)})
	}
	return m
}

func TestStateTransferSteps(t *testing.T) {
	for _, tc := range []struct {
		name   string
		script []step
		open   bool
		err    error
		keys   int // keys the destination store must hold afterwards
	}{
		{
			name: "shard by shard; the last shard ends it",
			script: []step{
				{at: 0, sends: "state:0"},
				{msg: shard(0, true, "a", "b")}, {at: time.Millisecond, sends: "state:1"},
				{msg: shard(1, true)}, {at: 2 * time.Millisecond, sends: "state:2"},
				{msg: shard(2, false, "c")},
			},
			keys: 3,
		},
		{
			name: "a lost reply is asked for again after the backoff",
			script: []step{
				{at: 0, sends: "state:0"},
				{at: stepTimeout - 1},
				{at: stepTimeout}, // deadline: back off
				{at: stepTimeout + stepBackoff, sends: "state:0"},
				{msg: shard(0, true, "a")},
				{at: stepTimeout + stepBackoff, sends: "state:1"}, // the next shard starts a budget of its own
			},
			open: true, keys: 1,
		},
		{
			name: "a reply for another shard is a straggler",
			script: []step{
				{at: 0, sends: "state:0"},
				{msg: shard(1, false, "x")}, {msg: &message.Message{Type: message.TypeStateRequest}},
				{msg: shard(0, true, "a")}, {msg: shard(0, true, "late")}, // the resend's answer, after the first's
				{at: time.Millisecond, sends: "state:1"},
			},
			open: true, keys: 1,
		},
		{
			name: "a silent donor spends the budget",
			script: []step{
				{at: 0, sends: "state:0"},
				{at: stepTimeout}, {at: stepTimeout + stepBackoff, sends: "state:0"},
				{at: 2*stepTimeout + stepBackoff}, {at: 2*stepTimeout + 2*stepBackoff, sends: "state:0"},
				{at: 3*stepTimeout + 2*stepBackoff},
			},
			err: ErrNoQuorum,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ep, dst := &recEndpoint{}, vstore.New(vstore.Config{})
			st := newStateTransfer(&drive.Link{Ep: ep}, stepTopo.ReplicaAddr(0, 1, 0), dst, stepPolicy, Options{})
			for i, s := range tc.script {
				if s.msg != nil {
					st.Reply(s.msg)
				} else {
					st.Tick(stepT0.Add(s.at))
				}
				st.Perform()
				if got := ep.take(); got != s.sends {
					t.Fatalf("step %d sent %q, want %q", i, got, s.sends)
				}
			}
			if open, _ := st.Pending(); (open == 1) != tc.open || !errors.Is(st.err, tc.err) || (tc.err == nil) != (st.err == nil) {
				t.Fatalf("open %d err %v, want open %v err %v", open, st.err, tc.open, tc.err)
			}
			if dst.Len() != tc.keys {
				t.Errorf("destination holds %d keys, want %d", dst.Len(), tc.keys)
			}
		})
	}
}

// TestContextBoundsRecovery: the caller's context ends both wrappers with an
// error that unwraps to the driver's ErrTimeout and to the context's own.
func TestContextBoundsRecovery(t *testing.T) {
	net := transport.NewInproc(transport.InprocConfig{})
	defer net.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := SyncStoreRemote(ctx, net, stepTopo, 0, 1, vstore.New(vstore.Config{}), stepPolicy, Options{})
	if !errors.Is(err, drive.ErrTimeout) || !errors.Is(err, context.Canceled) {
		t.Errorf("SyncStoreRemote: %v, want ErrTimeout wrapping context.Canceled", err)
	}
	// A deadline that passes mid-run: nobody answers, the budget is far longer.
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err = RunEpochChange(ctx, net, stepTopo, 0, 1, stepPolicy, Options{})
	if !errors.Is(err, drive.ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("RunEpochChange: %v, want ErrTimeout wrapping context.DeadlineExceeded", err)
	}
}
