package replica_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/coordinator"
	"meerkat/internal/drive"
	"meerkat/internal/faultnet"
	"meerkat/internal/message"
	"meerkat/internal/replica"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

type harness struct {
	t    *testing.T
	topo topo.Topology
	net  transport.Network
	reps []*replica.Replica
	ep   transport.Endpoint
	in   *transport.Inbox

	done chan handling    // what the handlers have finished, in order
	seen map[handling]int // taken off done and not yet waited for
}

// handling is one message of type typ that the handler bound at `at` has
// returned from.
type handling struct {
	at  message.Addr
	typ message.Type
}

// tapNet reports every message a handler has finished with, so that a test
// waits for the handling it is after and not for time to pass.
type tapNet struct {
	transport.Network
	done chan handling
}

func (n tapNet) Listen(addr message.Addr, h transport.Handler) (transport.Endpoint, error) {
	return n.Network.Listen(addr, func(m *message.Message) {
		typ := m.Type // the handler recycles m
		h(m)
		n.done <- handling{addr, typ}
	})
}

var harnessTopo = topo.Topology{Partitions: 1, Replicas: 3, Cores: 2}

func newHarness(t *testing.T, shared bool, sweep time.Duration) *harness {
	t.Helper()
	return newHarnessOn(t, transport.NewInproc(transport.InprocConfig{}), shared, sweep)
}

// newHarnessOn starts the three replicas and the test's endpoint on net.
func newHarnessOn(t *testing.T, net transport.Network, shared bool, sweep time.Duration) *harness {
	t.Helper()
	tp := harnessTopo
	// Room for everything a test's handlers ever finish: none of them waits on
	// the tap.
	h := &harness{t: t, topo: tp, done: make(chan handling, 1<<16), seen: make(map[handling]int)}
	h.net = tapNet{net, h.done}
	for i := 0; i < 3; i++ {
		rep, err := replica.New(replica.Config{
			Topo: tp, Partition: 0, Index: i, Net: h.net,
			SharedRecord:  shared,
			SweepInterval: sweep,
			StaleAfter:    2 * sweep,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Start(); err != nil {
			t.Fatal(err)
		}
		h.reps = append(h.reps, rep)
	}
	h.in = transport.NewInbox(64)
	ep, err := h.net.Listen(message.Addr{Node: topo.ClientNodeBase + 99, Core: 0}, h.in.Handle)
	if err != nil {
		t.Fatal(err)
	}
	h.ep = ep
	t.Cleanup(func() {
		for _, r := range h.reps {
			r.Stop()
		}
		h.net.Close()
	})
	return h
}

func (h *harness) send(rep int, m *message.Message) {
	h.t.Helper()
	if err := h.ep.Send(h.topo.ReplicaAddr(0, rep, m.CoreID), m); err != nil {
		h.t.Fatal(err)
	}
}

func (h *harness) recv(want message.Type) *message.Message {
	h.t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case m := <-h.in.C:
			if m.Type == want {
				return m
			}
		case <-deadline:
			h.t.Fatalf("timed out waiting for %v", want)
		}
	}
}

// handled blocks until core `core` of replica rep has finished handling one
// more message of type typ than earlier calls have waited for.
func (h *harness) handled(rep int, core uint32, typ message.Type) {
	h.t.Helper()
	want := handling{h.topo.ReplicaAddr(0, rep, core), typ}
	for watchdog := time.After(5 * time.Second); h.seen[want] == 0; {
		select {
		case got := <-h.done:
			h.seen[got]++
		case <-watchdog:
			h.t.Fatalf("replica %d core %d never handled a %v", rep, core, typ)
		}
	}
	h.seen[want]--
}

func ts(t int64, c uint64) timestamp.Timestamp { return timestamp.Timestamp{Time: t, ClientID: c} }

func rmwTxn(seq, client uint64, key, val string, readWTS timestamp.Timestamp) message.Txn {
	return message.Txn{
		ID: timestamp.TxnID{Seq: seq, ClientID: client},
		// The reads here observe a missing key (version Zero, no value), so the
		// hash matches the store's empty-chain hash.
		ReadSet:  []message.ReadSetEntry{{Key: key, WTS: readWTS, VHash: message.HashValue(nil)}},
		WriteSet: []message.WriteSetEntry{{Key: key, Value: []byte(val)}},
	}
}

func TestValidateReplyAndIdempotence(t *testing.T) {
	h := newHarness(t, false, 0)
	txn := rmwTxn(1, 1, "k", "v", timestamp.Zero)
	// Send hands the struct over for good, so a retry is a fresh message.
	val := func() *message.Message {
		return &message.Message{Type: message.TypeValidate, Txn: txn, TID: txn.ID, TS: ts(10, 1), CoreID: 0}
	}

	h.send(0, val())
	r1 := h.recv(message.TypeValidateReply)
	if r1.Status != message.StatusValidatedOK || r1.TID != txn.ID {
		t.Fatalf("reply %+v", r1)
	}
	// A retry must re-reply with the recorded status, not re-validate.
	h.send(0, val())
	r2 := h.recv(message.TypeValidateReply)
	if r2.Status != message.StatusValidatedOK {
		t.Fatalf("duplicate validate reply %+v", r2)
	}
}

func TestConflictingValidateAborts(t *testing.T) {
	h := newHarness(t, false, 0)
	t1 := rmwTxn(1, 1, "k", "a", timestamp.Zero)
	t2 := rmwTxn(1, 2, "k", "b", timestamp.Zero)

	h.send(0, &message.Message{Type: message.TypeValidate, Txn: t1, TID: t1.ID, TS: ts(10, 1), CoreID: 0})
	if r := h.recv(message.TypeValidateReply); r.Status != message.StatusValidatedOK {
		t.Fatalf("t1: %+v", r)
	}
	// t2 reads version Zero but proposes ts above t1's pending write.
	h.send(0, &message.Message{Type: message.TypeValidate, Txn: t2, TID: t2.ID, TS: ts(20, 2), CoreID: 0})
	if r := h.recv(message.TypeValidateReply); r.Status != message.StatusValidatedAbort {
		t.Fatalf("t2: %+v", r)
	}
}

func TestCommitAppliesWrites(t *testing.T) {
	h := newHarness(t, false, 0)
	txn := rmwTxn(1, 1, "k", "v", timestamp.Zero)
	h.send(0, &message.Message{Type: message.TypeValidate, Txn: txn, TID: txn.ID, TS: ts(10, 1), CoreID: 0})
	h.recv(message.TypeValidateReply)
	h.send(0, &message.Message{Type: message.TypeCommit, TID: txn.ID, Status: message.StatusCommitted, CoreID: 0})
	h.handled(0, 0, message.TypeCommit)
	if v, ok := h.reps[0].Store().Read("k"); !ok || string(v.Value) != "v" {
		t.Fatalf("commit not applied: read %q, %v", v.Value, ok)
	}
	// Duplicate commit and commit for an unknown txn are ignored.
	h.send(0, &message.Message{Type: message.TypeCommit, TID: txn.ID, Status: message.StatusCommitted, CoreID: 0})
	h.send(0, &message.Message{Type: message.TypeCommit, TID: timestamp.TxnID{Seq: 99, ClientID: 9}, Status: message.StatusCommitted, CoreID: 0})
	h.handled(0, 0, message.TypeCommit)
	h.handled(0, 0, message.TypeCommit)
	if vs := h.reps[0].Store().Versions("k"); len(vs) != 1 {
		t.Fatalf("duplicate commit re-applied: %d versions", len(vs))
	}
}

func TestAbortCleansPendingState(t *testing.T) {
	h := newHarness(t, false, 0)
	txn := rmwTxn(1, 1, "k", "v", timestamp.Zero)
	h.send(0, &message.Message{Type: message.TypeValidate, Txn: txn, TID: txn.ID, TS: ts(10, 1), CoreID: 0})
	h.recv(message.TypeValidateReply)
	h.send(0, &message.Message{Type: message.TypeCommit, TID: txn.ID, Status: message.StatusAborted, CoreID: 0})
	h.handled(0, 0, message.TypeCommit)
	if r, w := h.reps[0].Store().Pending("k"); r != 0 || w != 0 {
		t.Fatalf("pending state leaked: (%d,%d)", r, w)
	}
	if _, ok := h.reps[0].Store().Read("k"); ok {
		t.Fatal("aborted write visible")
	}
}

func TestCoordChangeViewFencing(t *testing.T) {
	h := newHarness(t, false, 0)
	tid := timestamp.TxnID{Seq: 1, ClientID: 1}

	// View 5 promised.
	h.send(0, &message.Message{Type: message.TypeCoordChange, TID: tid, View: 5, CoreID: 0})
	ack := h.recv(message.TypeCoordChangeAck)
	if !ack.OK || ack.View != 5 || len(ack.Records) != 1 {
		t.Fatalf("ack %+v", ack)
	}
	// Lower view rejected, reports current view.
	h.send(0, &message.Message{Type: message.TypeCoordChange, TID: tid, View: 3, CoreID: 0})
	nack := h.recv(message.TypeCoordChangeAck)
	if nack.OK || nack.View != 5 {
		t.Fatalf("nack %+v", nack)
	}
	// Accept with a stale view rejected.
	h.send(0, &message.Message{Type: message.TypeAccept, TID: tid, Status: message.StatusAcceptCommit, View: 3, CoreID: 0})
	arep := h.recv(message.TypeAcceptReply)
	if arep.OK {
		t.Fatalf("stale accept accepted: %+v", arep)
	}
	// Accept at the promised view succeeds.
	h.send(0, &message.Message{Type: message.TypeAccept, TID: tid, Status: message.StatusAcceptCommit, View: 5, CoreID: 0})
	arep = h.recv(message.TypeAcceptReply)
	if !arep.OK || arep.View != 5 {
		t.Fatalf("accept at promised view: %+v", arep)
	}
}

func TestEpochChangePausesValidation(t *testing.T) {
	h := newHarness(t, false, 0)
	// Pause core 0 of replica 0.
	h.send(0, &message.Message{Type: message.TypeEpochChange, Epoch: 1, CoreID: 0})
	ack := h.recv(message.TypeEpochChangeAck)
	if ack.Epoch != 1 {
		t.Fatalf("ack %+v", ack)
	}
	// Validation on the paused core is dropped (no reply).
	txn := rmwTxn(1, 1, "k", "v", timestamp.Zero)
	h.send(0, &message.Message{Type: message.TypeValidate, Txn: txn, TID: txn.ID, TS: ts(10, 1), CoreID: 0})
	select {
	case m := <-h.in.C:
		if m.Type == message.TypeValidateReply {
			t.Fatalf("paused core validated: %+v", m)
		}
	case <-time.After(50 * time.Millisecond):
	}
	// Resume with an empty merged trecord; validation works again.
	h.send(0, &message.Message{Type: message.TypeEpochChangeComplete, Epoch: 1, CoreID: 0})
	h.recv(message.TypeEpochChangeCompleteAck)
	h.send(0, &message.Message{Type: message.TypeValidate, Txn: txn, TID: txn.ID, TS: ts(10, 1), CoreID: 0})
	if r := h.recv(message.TypeValidateReply); r.Status != message.StatusValidatedOK {
		t.Fatalf("post-resume validate: %+v", r)
	}
	if h.reps[0].Epoch() != 1 {
		t.Fatalf("epoch = %d", h.reps[0].Epoch())
	}
}

func TestBackupCoordinatorCompletesOrphan(t *testing.T) {
	// A coordinator validates on all replicas and vanishes before sending
	// commit. A Recoverer (backup coordinator) must finish the transaction
	// with a consistent outcome and unblock the key.
	h := newHarness(t, false, 0)
	txn := rmwTxn(1, 1, "k", "v", timestamp.Zero)
	for rep := 0; rep < 3; rep++ {
		h.send(rep, &message.Message{Type: message.TypeValidate, Txn: txn, TID: txn.ID, TS: ts(10, 1), CoreID: 0})
	}
	for i := 0; i < 3; i++ {
		h.recv(message.TypeValidateReply)
	}

	rec, err := coordinator.NewRecoverer(h.net, h.topo,
		message.Addr{Node: topo.ClientNodeBase + 500, Core: 0}, 2, drive.Policy{Timeout: 100 * time.Millisecond, Retries: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	committed, err := rec.Recover(context.Background(), 0, txn.ID, 0, 0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !committed {
		t.Fatal("validated-everywhere transaction was aborted by recovery")
	}
	// The write must be applied and pending state cleared.
	h.handled(0, 0, message.TypeCommit)
	v, ok := h.reps[0].Store().Read("k")
	if r, w := h.reps[0].Store().Pending("k"); !ok || string(v.Value) != "v" || r != 0 || w != 0 {
		t.Fatalf("recovery did not finish cleanly: ok=%v pending=(%d,%d)", ok, r, w)
	}
}

// TestBackupCoordinatorCarriesOpOnlyBody: an orphan that is one increment —
// no read set, no write set — validated at a bare majority. The backup
// coordinator's accept must carry the increment, or the replica that missed
// the validate commits an empty body and its counter never moves. (That
// replica's acks are lost, so the recovery decides on the two records that
// make the commit safe, whichever order the acks are sent in.)
func TestBackupCoordinatorCarriesOpOnlyBody(t *testing.T) {
	recoverer := message.Addr{Node: topo.ClientNodeBase + 500, Core: 0}
	deaf := faultnet.EveryLink(faultnet.Rule{DropProb: 1})
	deaf.SrcNode, deaf.DstNode = int(harnessTopo.ReplicaAddr(0, 2, 0).Node), int(recoverer.Node)
	h := newHarnessOn(t, faultnet.Wrap(transport.NewInproc(transport.InprocConfig{}), &faultnet.Plan{Rules: []faultnet.Rule{deaf}}), false, 0)
	txn := message.Txn{
		ID:    timestamp.TxnID{Seq: 1, ClientID: 1},
		OpSet: []message.OpSetEntry{{Key: "ctr", Kind: message.OpIncrement, Delta: 5}},
	}
	for rep := 0; rep < 2; rep++ {
		h.send(rep, &message.Message{Type: message.TypeValidate, Txn: txn, TID: txn.ID, TS: ts(10, 1), CoreID: 0})
		h.recv(message.TypeValidateReply)
	}
	rec, err := coordinator.NewRecoverer(h.net, h.topo, recoverer, 2, drive.Policy{Timeout: 100 * time.Millisecond, Retries: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if committed, err := rec.Recover(context.Background(), 0, txn.ID, 0, 0); err != nil || !committed {
		t.Fatalf("Recover: committed=%v err=%v", committed, err)
	}
	want := string(message.ApplyOp(nil, nil, message.OpIncrement, 5, nil))
	for rep := 0; rep < 3; rep++ {
		h.handled(rep, 0, message.TypeCommit)
		if v, ok := h.reps[rep].Store().Read("ctr"); !ok || string(v.Value) != want {
			t.Fatalf("replica %d reads the counter as %q (ok=%v), want %q", rep, v.Value, ok, want)
		}
	}
}

func TestBackupCoordinatorAbortsUnvalidatedOrphan(t *testing.T) {
	// The orphan only reached one replica: recovery cannot prove a commit,
	// so it must abort everywhere.
	h := newHarness(t, false, 0)
	txn := rmwTxn(1, 1, "k", "v", timestamp.Zero)
	h.send(0, &message.Message{Type: message.TypeValidate, Txn: txn, TID: txn.ID, TS: ts(10, 1), CoreID: 0})
	h.recv(message.TypeValidateReply)

	rec, err := coordinator.NewRecoverer(h.net, h.topo,
		message.Addr{Node: topo.ClientNodeBase + 500, Core: 0}, 2, drive.Policy{Timeout: 100 * time.Millisecond, Retries: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	committed, err := rec.Recover(context.Background(), 0, txn.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("under-validated orphan committed")
	}
	h.handled(0, 0, message.TypeCommit)
	if r, w := h.reps[0].Store().Pending("k"); r != 0 || w != 0 {
		t.Fatalf("abort did not clean pending state: (%d,%d)", r, w)
	}
}

func TestConcurrentBackupCoordinatorsAgree(t *testing.T) {
	// Two backup coordinators race to finish the same orphan: views ensure
	// both reach the same outcome.
	h := newHarness(t, false, 0)
	txn := rmwTxn(1, 1, "k", "v", timestamp.Zero)
	for rep := 0; rep < 3; rep++ {
		h.send(rep, &message.Message{Type: message.TypeValidate, Txn: txn, TID: txn.ID, TS: ts(10, 1), CoreID: 0})
	}
	for i := 0; i < 3; i++ {
		h.recv(message.TypeValidateReply)
	}

	results := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			rec, err := coordinator.NewRecoverer(h.net, h.topo,
				message.Addr{Node: topo.ClientNodeBase + 600 + uint32(i), Core: 0},
				uint64(i), drive.Policy{Timeout: 50 * time.Millisecond, Retries: 10})
			if err != nil {
				t.Error(err)
				results <- false
				return
			}
			defer rec.Close()
			committed, err := rec.Recover(context.Background(), 0, txn.ID, 0, 0)
			if err != nil {
				t.Errorf("recover %d: %v", i, err)
			}
			results <- committed
		}(i)
	}
	a, b := <-results, <-results
	if a != b {
		t.Fatalf("backup coordinators disagreed: %v vs %v", a, b)
	}
	if !a {
		t.Fatal("fully validated transaction aborted")
	}
}

func TestSweeperFinishesOrphan(t *testing.T) {
	// With sweeping enabled, an orphaned transaction is finished by the
	// replicas themselves, no external recovery needed — on virtual time: the
	// records age, and the sweep ticks, only as the test moves the clock.
	const sweep = 20 * time.Millisecond // the harness makes StaleAfter two of them
	clk := clock.NewManual(int64(time.Hour))
	h := newHarnessOn(t, transport.NewInproc(transport.InprocConfig{Clock: clk}), false, sweep)
	txn := rmwTxn(1, 1, "k", "v", timestamp.Zero)
	for rep := 0; rep < 3; rep++ {
		h.send(rep, &message.Message{Type: message.TypeValidate, Txn: txn, TID: txn.ID, TS: ts(10, 1), CoreID: 0})
	}
	for i := 0; i < 3; i++ {
		h.recv(message.TypeValidateReply)
	}

	// One sweep short of StaleAfter nothing may touch the record.
	clk.Advance(int64(sweep))
	for rep := 0; rep < 3; rep++ {
		h.handled(rep, 0, message.TypeSweep)
	}
	if _, w := h.reps[0].Store().Pending("k"); w != 1 {
		t.Fatalf("a record younger than StaleAfter was swept: %d pending writers", w)
	}
	// At StaleAfter the tick's sweep finds it, and whichever replica's backup
	// coordinator gets there first commits it everywhere.
	clk.Advance(int64(sweep))
	for rep := 0; rep < 3; rep++ {
		h.handled(rep, 0, message.TypeCommit)
		v, ok := h.reps[rep].Store().Read("k")
		if r, w := h.reps[rep].Store().Pending("k"); !ok || string(v.Value) != "v" || r != 0 || w != 0 {
			t.Fatalf("replica %d after the sweep: read %q, %v, pending (%d,%d)", rep, v.Value, ok, r, w)
		}
	}
}

func TestSharedRecordModeProtocol(t *testing.T) {
	// The TAPIR-like shared-record mode must run the same protocol.
	h := newHarness(t, true, 0)
	txn := rmwTxn(1, 1, "k", "v", timestamp.Zero)
	h.send(0, &message.Message{Type: message.TypeValidate, Txn: txn, TID: txn.ID, TS: ts(10, 1), CoreID: 0})
	if r := h.recv(message.TypeValidateReply); r.Status != message.StatusValidatedOK {
		t.Fatalf("validate: %+v", r)
	}
	// Same tid on the *other* core sees the same shared record.
	h.send(0, &message.Message{Type: message.TypeValidate, Txn: txn, TID: txn.ID, TS: ts(10, 1), CoreID: 1})
	if r := h.recv(message.TypeValidateReply); r.Status != message.StatusValidatedOK {
		t.Fatalf("cross-core duplicate: %+v", r)
	}
	h.send(0, &message.Message{Type: message.TypeCommit, TID: txn.ID, Status: message.StatusCommitted, CoreID: 0})
	h.handled(0, 0, message.TypeCommit)
	if v, ok := h.reps[0].Store().Read("k"); !ok || string(v.Value) != "v" {
		t.Fatal("commit not applied in shared mode")
	}
}

func TestReadServedByAnyCore(t *testing.T) {
	h := newHarness(t, false, 0)
	h.reps[2].Store().Load("k", []byte("v"), ts(1, 0))
	// The request is a literal whose Keys alias the sender's array, as the
	// benchmark's probes send them.
	keys := [2]string{"k", "nope"}
	h.send(2, &message.Message{Type: message.TypeMultiRead, Keys: keys[:], Seq: 7, CoreID: 1})
	r := h.recv(message.TypeMultiReadReply)
	if len(r.Reads) != 2 || r.Seq != 7 {
		t.Fatalf("read reply %+v", r)
	}
	if got := r.Reads[0]; !got.OK || string(got.Value) != "v" || got.WTS != ts(1, 0) {
		t.Fatalf("read of k: %+v", got)
	}
	// Missing key reads as not-found with version Zero.
	if got := r.Reads[1]; got.OK || !got.WTS.IsZero() {
		t.Fatalf("missing-key read: %+v", got)
	}
	// The core released the literal into the pool; the requests and replies
	// that follow refill pooled messages, and none of them may have kept, and
	// now write, the sender's array.
	for seq := uint64(8); seq < 40; seq++ {
		req := message.AcquireMessage()
		req.Type, req.Seq = message.TypeMultiRead, seq
		req.OwnKeys(2)[0], req.Keys[1] = "nope", "nope"
		h.send(2, req)
		message.ReleaseMessage(h.recv(message.TypeMultiReadReply))
	}
	if keys != [2]string{"k", "nope"} {
		t.Fatalf("the sender's key array was written: %q", keys)
	}
}

// udpReplica starts replica 0 of a one-core group on loopback UDP sockets from
// port up, and returns it with a function that sends it one message from a
// client endpoint and waits for the reply of type want (TypeInvalid: for none).
func udpReplica(t *testing.T, port int) (*replica.Replica, func(m *message.Message, want message.Type) *message.Message) {
	t.Helper()
	tp := topo.Topology{Partitions: 1, Replicas: 3, Cores: 1}
	net := transport.NewUDP("127.0.0.1", port, 2)
	t.Cleanup(func() { net.Close() })
	rep, err := replica.New(replica.Config{Topo: tp, Partition: 0, Index: 0, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Start(); err != nil {
		t.Skipf("cannot bind UDP sockets: %v", err)
	}
	t.Cleanup(rep.Stop)
	in := transport.NewInbox(64)
	ep, err := net.Listen(tp.ClientAddr(1), in.Handle)
	if err != nil {
		t.Fatal(err)
	}
	dst := tp.ReplicaAddr(0, 0, 0)
	return rep, func(m *message.Message, want message.Type) *message.Message {
		t.Helper()
		if err := ep.Send(dst, m); err != nil {
			t.Fatal(err)
		}
		if want == message.TypeInvalid {
			return nil
		}
		select {
		case r := <-in.C:
			if r.Type != want {
				t.Fatalf("got %v, want %v", r.Type, want)
			}
			return r
		case <-time.After(5 * time.Second):
			t.Fatalf("no %v", want)
			return nil
		}
	}
}

// TestUDPValidateRetainedByRecordSurvivesStructReuse: over UDP the receive
// loop decodes every datagram into a pooled struct that the core recycles —
// the arena its keys and values are cut from and the arrays its sets are
// decoded into included — when its handler returns. handleValidate keeps the
// transaction body, so it must have copied it out, entries and bytes: after the
// same struct has carried a few hundred other validates of other set sizes, the
// record of the first one still holds exactly the body it arrived with, entry
// for entry and byte for byte (read back through a
// coordinator-change ack, which ships the record), and the version its commit
// installs — which aliases the record's value — reads back whole.
func TestUDPValidateRetainedByRecordSurvivesStructReuse(t *testing.T) {
	_, call := udpReplica(t, 29100)
	first := rmwTxn(1, 1, "first-key", "first-value", timestamp.Zero)
	r := call(&message.Message{Type: message.TypeValidate, Txn: first, TID: first.ID, TS: ts(10, 1)}, message.TypeValidateReply)
	if r.Status != message.StatusValidatedOK {
		t.Fatalf("first validate: %v", r.Status)
	}
	others := func(from, to uint64) {
		for i := from; i < to; i++ {
			// One to five reads and writes, so the arrays the struct decodes
			// into grow and shrink under the record's body.
			other := rmwTxn(i, 1, fmt.Sprintf("other-key-%d", i), "other-value", timestamp.Zero)
			for j := uint64(1); j <= i%5; j++ {
				key := fmt.Sprintf("other-key-%d-%d", i, j)
				other.ReadSet = append(other.ReadSet, message.ReadSetEntry{Key: key, VHash: message.HashValue(nil)})
				other.WriteSet = append(other.WriteSet, message.WriteSetEntry{Key: key, Value: []byte("other-value")})
			}
			message.ReleaseMessage(call(&message.Message{Type: message.TypeValidate, Txn: other, TID: other.ID, TS: ts(int64(10*i), 1)}, message.TypeValidateReply))
		}
	}
	others(2, 300)

	ack := call(&message.Message{Type: message.TypeCoordChange, TID: first.ID, View: 5}, message.TypeCoordChangeAck)
	if !ack.OK || len(ack.Records) != 1 {
		t.Fatalf("coordinator-change ack: %+v", ack)
	}
	got := ack.Records[0].Txn
	if !reflect.DeepEqual(got, first) {
		t.Fatalf("record body changed after struct reuse:\ngot  %+v\nwant %+v", got, first)
	}
	if k, v := got.WriteSet[0].Key, got.WriteSet[0].Value; k != "first-key" || string(v) != "first-value" || got.ReadSet[0].Key != "first-key" {
		t.Fatalf("record keeps key %q (read %q), value %q", k, got.ReadSet[0].Key, v)
	}

	// A commit has no reply; the validates behind it on the same core do.
	call(&message.Message{Type: message.TypeCommit, TID: first.ID, Status: message.StatusCommitted}, message.TypeInvalid)
	others(300, 400)
	rd := message.AcquireMessage()
	rd.Type, rd.Seq = message.TypeMultiRead, 1
	rd.OwnKeys(1)[0] = "first-key"
	if res := call(rd, message.TypeMultiReadReply); len(res.Reads) != 1 || !res.Reads[0].OK || string(res.Reads[0].Value) != "first-value" {
		t.Fatalf("the committed version reads back as %+v", res.Reads)
	}
}

// TestSnapshotReadOfUnknownKeyOwnsItsKey: a snapshot read of a key nobody has
// written creates its store entry (the read timestamp has to live somewhere),
// and the name it is handed is cut from the request's arena. The entry must
// own a copy: once the struct has carried a few hundred other datagrams the
// store still finds it by that name, with the snapshot's read timestamp on it.
func TestSnapshotReadOfUnknownKeyOwnsItsKey(t *testing.T) {
	rep, call := udpReplica(t, 29140)
	read := func(seq uint64, key string, snap timestamp.Timestamp) *message.Message {
		m := message.AcquireMessage()
		m.Type, m.Seq, m.TS = message.TypeMultiRead, seq, snap
		m.OwnKeys(1)[0] = key
		return call(m, message.TypeMultiReadReply)
	}
	snap := ts(50, 1)
	if r := read(1, "ghost-key", snap); len(r.Reads) != 1 || r.Reads[0].OK {
		t.Fatalf("snapshot read of an unknown key: %+v", r.Reads)
	}
	for i := uint64(2); i < 300; i++ {
		message.ReleaseMessage(read(i, fmt.Sprintf("other-key-%d", i), timestamp.Timestamp{}))
	}
	if _, rts := rep.Store().Meta("ghost-key"); rts != snap {
		t.Fatalf("the store lost the entry of the snapshot-read key: rts %v, want %v", rts, snap)
	}
	if n := rep.Store().Len(); n != 1 {
		t.Fatalf("store holds %d keys, want the one snapshot-read key", n)
	}
}
