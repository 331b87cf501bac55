package meerkat

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"meerkat/internal/checker"
	"meerkat/internal/clock"
	"meerkat/internal/faultnet"
	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

func TestCrashedReplicaTxnsContinue(t *testing.T) {
	verifyCleanShutdown(t, "")
	// With one of three replicas down, the fast quorum (3) is unreachable
	// but the majority (2) is: every transaction takes the slow path and
	// still commits.
	c := newTestDB(t, Config{CommitTimeout: 50 * time.Millisecond})
	cl := newDBClient(t, c)

	if err := cl.Put("before", []byte("1")); err != nil {
		t.Fatal(err)
	}
	c.Admin().CrashReplica(0, 2)

	for i := 0; i < 10; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("put %d with crashed replica: %v", i, err)
		}
	}
	v, err := cl.GetStrong("k5")
	if err != nil || string(v) != "v" {
		t.Fatalf("get after crash: %q, %v", v, err)
	}
}

func TestMinorityCrashTolerated5Replicas(t *testing.T) {
	verifyCleanShutdown(t, "")
	c := newTestDB(t, Config{Replicas: 5, CommitTimeout: 50 * time.Millisecond})
	cl := newDBClient(t, c)
	c.Admin().CrashReplica(0, 1)
	c.Admin().CrashReplica(0, 3)
	for i := 0; i < 5; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("put with 2/5 crashed: %v", err)
		}
	}
}

func TestReplicaRecoveryRestoresState(t *testing.T) {
	verifyCleanShutdown(t, "")
	c := newTestDB(t, Config{CommitTimeout: 50 * time.Millisecond})
	cl := newDBClient(t, c)

	for i := 0; i < 20; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Admin().CrashReplica(0, 1)
	for i := 20; i < 40; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Admin().RecoverReplica(0, 1); err != nil {
		t.Fatalf("RecoverReplica: %v", err)
	}

	// The recovered replica must hold all committed data, including what
	// committed while it was down.
	rep := c.replicaAt(0, 1)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k%d", i)
		v, ok := rep.Store().Read(key)
		if !ok {
			t.Fatalf("recovered replica missing %s", key)
		}
		if string(v.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered replica has %s=%q", key, v.Value)
		}
	}

	// And the cluster keeps serving (fast path available again).
	for i := 40; i < 50; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("put after recovery: %v", err)
		}
	}
}

func TestEpochChangeIdle(t *testing.T) {
	verifyCleanShutdown(t, "")
	c := newTestDB(t, Config{})
	cl := newDBClient(t, c)
	if err := cl.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Admin().EpochChange(0); err != nil {
		t.Fatalf("EpochChange: %v", err)
	}
	// State survives; traffic resumes.
	v, err := cl.GetStrong("k")
	if err != nil || string(v) != "v1" {
		t.Fatalf("after epoch change: %q, %v", v, err)
	}
	if err := cl.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if c.replicaAt(0, 0).Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", c.replicaAt(0, 0).Epoch())
	}
}

func TestEpochChangeUnderLoad(t *testing.T) {
	verifyCleanShutdown(t, "")
	// Run epoch changes while clients hammer a counter: no lost updates
	// allowed even though validation pauses and in-flight transactions get
	// reconciled by the merge.
	c := newTestDB(t, Config{Cores: 2, CommitTimeout: 50 * time.Millisecond})
	c.Load("ctr", []byte("0"))

	stop := make(chan struct{})
	var committed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		cl := newDBClient(t, c)
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ok, err := runOnce(cl, func(txn *Txn) error {
					v, err := txn.Read("ctr")
					if err != nil {
						return err
					}
					n, _ := strconv.Atoi(string(v))
					txn.Write("ctr", []byte(strconv.Itoa(n+1)))
					return nil
				})
				if err == nil && ok {
					mu.Lock()
					committed++
					mu.Unlock()
				}
			}
		}(cl)
	}

	for e := 0; e < 3; e++ {
		time.Sleep(30 * time.Millisecond)
		if err := c.Admin().EpochChange(0); err != nil {
			t.Errorf("epoch change %d: %v", e, err)
		}
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()

	cl := newDBClient(t, c)
	v, err := cl.GetStrong("ctr")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := strconv.Atoi(string(v))
	mu.Lock()
	want := committed
	mu.Unlock()
	// The counter may exceed the client-visible commit count: an increment
	// whose commit decision raced the epoch change can be committed by the
	// merge after its client observed only a timeout. It must never be
	// below (that would be a lost update).
	if int64(n) < want {
		t.Fatalf("ctr = %d < %d committed increments (lost update)", n, want)
	}
	if want == 0 {
		t.Fatal("no increments committed during the run")
	}
}

func TestSerializabilityUnderMessageLoss(t *testing.T) {
	verifyCleanShutdown(t, "")
	// 2% message loss, concurrent clients on a small hot keyspace, sweeper
	// enabled to finish orphaned transactions. The committed history must
	// be one-copy serializable in timestamp order.
	c := newTestDB(t, Config{
		Cores:         2,
		Faults:        lossy(7, 0.02),
		Seed:          7,
		CommitTimeout: 20 * time.Millisecond,
		Retries:       20,
		SweepInterval: 25 * time.Millisecond,
		StaleAfter:    50 * time.Millisecond,
	})
	const keys = 5
	initial := make(map[string]timestamp.Timestamp, keys)
	loadTS := timestamp.Timestamp{Time: 1, ClientID: 0}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Load(k, []byte("0"))
		initial[k] = loadTS
	}

	hist := checker.New()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		cl := newDBClient(t, c)
		wg.Add(1)
		go func(cl *Client, seed int) {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				key := fmt.Sprintf("k%d", (seed+j)%keys)
				txn := cl.Begin()
				if _, err := txn.Read(key); err != nil {
					continue // timed out under loss; try next
				}
				txn.Write(key, []byte(fmt.Sprintf("c%d-%d", seed, j)))
				ok, err := txn.Commit()
				if err != nil || !ok {
					continue
				}
				hist.Add(checker.CommittedTxn{
					ID: txn.inner.ID(), TS: txn.inner.Timestamp(),
					ReadSet: txn.inner.ReadSet(), WriteSet: txn.inner.WriteSet(),
				})
			}
		}(cl, i)
	}
	wg.Wait()

	if hist.Len() == 0 {
		t.Fatal("nothing committed under message loss")
	}
	if dups := hist.CheckUniqueTimestamps(); dups != nil {
		t.Fatalf("duplicate commit timestamps: %v", dups)
	}
	if v := hist.Check(initial); v != nil {
		for _, violation := range v {
			t.Error(violation)
		}
	}
	t.Logf("committed %d transactions under 2%% loss", hist.Len())
}

func TestSerializabilityUnderCrashRecovery(t *testing.T) {
	verifyCleanShutdown(t, "")
	c := newTestDB(t, Config{
		Cores:         2,
		CommitTimeout: 30 * time.Millisecond,
		Retries:       20,
	})
	const keys = 5
	initial := make(map[string]timestamp.Timestamp, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Load(k, []byte("0"))
		initial[k] = timestamp.Timestamp{Time: 1, ClientID: 0}
	}

	hist := checker.New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		cl := newDBClient(t, c)
		wg.Add(1)
		go func(cl *Client, seed int) {
			defer wg.Done()
			j := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				j++
				key := fmt.Sprintf("k%d", (seed+j)%keys)
				txn := cl.Begin()
				if _, err := txn.Read(key); err != nil {
					continue
				}
				txn.Write(key, []byte(fmt.Sprintf("c%d-%d", seed, j)))
				if ok, err := txn.Commit(); err == nil && ok {
					hist.Add(checker.CommittedTxn{
						ID: txn.inner.ID(), TS: txn.inner.Timestamp(),
						ReadSet: txn.inner.ReadSet(), WriteSet: txn.inner.WriteSet(),
					})
				}
			}
		}(cl, i)
	}

	time.Sleep(50 * time.Millisecond)
	c.Admin().CrashReplica(0, 2)
	time.Sleep(50 * time.Millisecond)
	if err := c.Admin().RecoverReplica(0, 2); err != nil {
		t.Errorf("recover: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if hist.Len() == 0 {
		t.Fatal("nothing committed across crash/recovery")
	}
	if v := hist.Check(initial); v != nil {
		for _, violation := range v {
			t.Error(violation)
		}
	}
	t.Logf("committed %d transactions across crash and recovery", hist.Len())
}

// TestSweeperFinishesOrphanedTxns: a coordinator validates its write and
// dies; the replicas' sweepers must find the record once it is StaleAfter old
// and their backup coordinators commit it — on virtual time, so the test moves
// the clock to that instant instead of sleeping past it. The test is the dead
// coordinator and, having crashed replica 2, also sits at that replica's
// address: it hears the backup coordinator's commit when the real replicas do.
func TestSweeperFinishesOrphanedTxns(t *testing.T) {
	verifyCleanShutdown(t, "")
	const sweep, stale = 20 * time.Millisecond, 40 * time.Millisecond
	clk := clock.NewManual(int64(time.Hour))
	db := newTestDB(t, Config{Seed: 11, SweepInterval: sweep, StaleAfter: stale, clock: clk})
	db.Admin().CrashReplica(0, 2)

	in := transport.NewInbox(64)
	listen := func(addr message.Addr) transport.Endpoint {
		ep, err := db.net.Listen(addr, in.Handle)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	recv := func(want message.Type) *message.Message {
		for watchdog := time.After(10 * time.Second); ; {
			select {
			case m := <-in.C:
				if m.Type == want {
					return m
				}
			case <-watchdog:
				t.Fatalf("never received a %v", want)
			}
		}
	}
	listen(db.topo.ReplicaAddr(0, 2, 0))
	coord := listen(db.topo.ClientAddr(900))

	tid := timestamp.TxnID{Seq: 1, ClientID: 900}
	txn := message.Txn{ID: tid, WriteSet: []message.WriteSetEntry{{Key: "k", Value: []byte("orphaned")}}}
	for r := 0; r < 2; r++ {
		coord.Send(db.topo.ReplicaAddr(0, r, 0), &message.Message{
			Type: message.TypeValidate, Txn: txn, TID: tid, TS: timestamp.Timestamp{Time: clk.Now(), ClientID: 900},
		})
		if m := recv(message.TypeValidateReply); m.Status != message.StatusValidatedOK {
			t.Fatalf("validate at replica %d: %v", r, m.Status)
		}
	}

	clk.Advance(int64(stale)) // two ticks: the second finds the record StaleAfter old
	if m := recv(message.TypeCommit); m.TID != tid || m.Status != message.StatusCommitted {
		t.Fatalf("the backup coordinator's outcome for %v: %v of %v", tid, m.Status, m.TID)
	}
	// The commit went to the real replicas in the same broadcast, ahead of this
	// read in their core's queue.
	for r := 0; r < 2; r++ {
		coord.Send(db.topo.ReplicaAddr(0, r, 0), &message.Message{Type: message.TypeMultiRead, Keys: []string{"k"}})
		if m := recv(message.TypeMultiReadReply); len(m.Reads) != 1 || string(m.Reads[0].Value) != "orphaned" {
			t.Fatalf("replica %d after the sweep reads %+v", r, m.Reads)
		}
	}
	if n := db.Admin().Obs().Snapshot().Counter(obs.SweepRecovery); n == 0 {
		t.Error("the sweepers report no recovery")
	}
}

// TestSweeperOverUDP: coordinator-failure recovery (§5.3.2) runs over the real
// wire. A replica's backup coordinator is one more address of the plan — one
// past the server threads — so it has a UDP port like everybody else. The
// first client never hears a reply, so its write is validated at every
// replica and then orphaned; a backup coordinator must finish it, and a
// second client must read what it wrote.
func TestSweeperOverUDP(t *testing.T) {
	verifyCleanShutdown(t, "")
	deaf := int(topo.ClientNodeBase + 1) // DB.Client numbers clients from 1
	db, err := Open(Config{
		Transport: TransportUDP, UDPBasePort: 26000, Cores: 2,
		CommitTimeout: 10 * time.Millisecond, Retries: 2,
		SweepInterval: 25 * time.Millisecond, StaleAfter: 50 * time.Millisecond,
		Faults: &faultnet.Plan{Seed: 1, Rules: []faultnet.Rule{{
			SrcNode: faultnet.Any, SrcCore: faultnet.Any, DstNode: deaf, DstCore: faultnet.Any, DropProb: 1,
		}}},
	})
	if sock := new(*net.OpError); errors.As(err, sock) {
		t.Skipf("cannot bind UDP sockets: %v", err)
	} else if err != nil {
		t.Fatalf("Open with a sweeper over UDP: %v", err)
	}
	defer db.Close()
	orphan := newDBClient(t, db)
	if got := db.topo.ClientAddr(orphan.ID()).Node; int(got) != deaf {
		t.Fatalf("the first client is node %d, the plan deafens %d", got, deaf)
	}
	if err := orphan.Put("k", []byte("orphaned")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("put by a client that hears no reply: %v, want ErrTimeout", err)
	}
	reader := newDBClient(t, db)
	deadline := time.Now().Add(10 * time.Second)
	for {
		val, err := reader.GetStrong("k")
		if err == nil && string(val) == "orphaned" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the orphaned write was never finished: read %q, %v", val, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := db.Admin().Obs().Snapshot().Counter(obs.SweepRecovery); n == 0 {
		t.Error("the write is there but no sweep handed it to a backup coordinator")
	}
}

// TestColdKeepersOverUDP drives, across a real decode, the four cold paths that
// keep what a decoded message carries (DESIGN.md §7 rule 5) and then looks into
// every replica's store for the exact bytes: a backup coordinator re-proposing
// the body it read in a coordinator-change ack, to a replica that never saw the
// validate; a state import; the epoch change's acks, whose records make the
// merge; and the merge's install. A message's bytes die at its release — under
// -race they are poisoned there, otherwise the next datagram decoded into that
// struct overwrites them, and the later traffic here makes sure one is — so a
// keeper that goes on aliasing them leaves garbage under a key, or the write
// under a garbage key, at some replica.
func TestColdKeepersOverUDP(t *testing.T) {
	verifyCleanShutdown(t, "")
	db, err := Open(Config{
		Transport: TransportUDP, UDPBasePort: 26500, Cores: 1,
		CommitTimeout: 10 * time.Millisecond,
		SweepInterval: 25 * time.Millisecond, StaleAfter: 100 * time.Millisecond,
	})
	if sock := new(*net.OpError); errors.As(err, sock) {
		t.Skipf("cannot bind UDP sockets: %v", err)
	} else if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	in := transport.NewInbox(64)
	raw, err := db.net.Listen(db.topo.ClientAddr(900), in.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// orphan validates a one-write transaction at replicas 0 and 1 — and, asked
	// to, has them accept its commit in view 0, which makes commit the only
	// outcome a backup coordinator may reach — and walks away: replica 2 never
	// hears of it and nobody sends the commit.
	orphan := func(seq uint64, key, value string, accept bool) {
		t.Helper()
		tid := timestamp.TxnID{Seq: seq, ClientID: 900}
		txn := message.Txn{ID: tid, WriteSet: []message.WriteSetEntry{{Key: key, Value: []byte(value)}}}
		ts := timestamp.Timestamp{Time: time.Now().UnixNano(), ClientID: 900}
		reqs := []message.Message{{Type: message.TypeValidate, Txn: txn, TID: tid, TS: ts}}
		if accept {
			reqs = append(reqs, message.Message{Type: message.TypeAccept, TID: tid, TS: ts, Status: message.StatusAcceptCommit})
		}
		for i := range reqs {
			for r := 0; r < 2; r++ {
				req := new(message.Message)
				req.CopyFrom(&reqs[i])
				raw.Send(db.topo.ReplicaAddr(0, r, 0), req)
				select {
				case m := <-in.C:
					if m.Type != reqs[i].Type+1 || m.Type == message.TypeValidateReply && m.Status != message.StatusValidatedOK ||
						m.Type == message.TypeAcceptReply && !m.OK {
						t.Fatalf("%v of %v at replica %d: %v", reqs[i].Type, tid, r, m)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("no reply to the %v from replica %d", reqs[i].Type, r)
				}
			}
		}
	}
	want := map[string]string{}
	// everywhere waits until every live replica's store reads want, byte for byte.
	everywhere := func(when string) {
		t.Helper()
		var diff string
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			diff = ""
			for r := 0; r < 3 && diff == ""; r++ {
				rep := db.replicaAt(0, r)
				for k, v := range want {
					if rep == nil {
						break
					}
					if got, ok := rep.Store().Read(k); !ok || string(got.Value) != v {
						diff = fmt.Sprintf("replica %d reads %q = %q (found %v), want %q", r, k, got.Value, ok, v)
						break
					}
				}
			}
			if diff == "" {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %s", when, diff)
			}
		}
	}

	// 1. The sweeper's backup coordinator reads the body in a decoded
	// coordinator-change ack and proposes it in an accept; replica 2 learns it
	// from that — a decoded accept — alone.
	orphan(1, "orphan-1", "re-proposed by a backup coordinator", true)
	want["orphan-1"] = "re-proposed by a backup coordinator"
	everywhere("after the sweep")

	// 2. Replica 2 crashes, misses ten commits and is rebuilt: the commits
	// reach it in decoded state replies. A second orphan is validated at the
	// survivors just before, so the epoch change finds it undecided in their
	// decoded acks, decides it in the merge and installs it — at replica 2 body
	// and all, out of the decoded epoch-change-complete.
	cl := newDBClient(t, db)
	db.Admin().CrashReplica(0, 2)
	for i := 0; i < 10; i++ {
		k, v := fmt.Sprintf("missed-%d", i), fmt.Sprintf("%064d", i)
		if err := cl.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	orphan(2, "orphan-2", "decided by the epoch change's merge", false)
	want["orphan-2"] = "decided by the epoch change's merge"
	if err := db.Admin().RecoverReplica(0, 2); err != nil {
		t.Fatal(err)
	}
	everywhere("after the recovery")

	// The structs that carried all of the above carry three hundred other
	// messages each; what was kept out of them does not change.
	for i := 0; i < 300; i++ {
		if err := cl.Put(fmt.Sprintf("later-%d", i%7), []byte(fmt.Sprintf("%064d", -i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 7; i++ {
		delete(want, fmt.Sprintf("later-%d", i))
	}
	everywhere("after 300 later transactions")
}
