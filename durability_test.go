package meerkat

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/timestamp"
	"meerkat/internal/wal"
)

// durableConfig is the base cluster config for durability tests: small core
// count, fast group commit, snapshots driven explicitly by the tests.
func durableConfig(dir string) Config {
	return Config{
		Cores:         2,
		CommitTimeout: 50 * time.Millisecond,
		Durability: Durability{
			DataDir:             dir,
			GroupCommitInterval: time.Millisecond,
			SnapshotInterval:    -1, // tests call Snapshot explicitly
		},
	}
}

func dkey(i int) string { return fmt.Sprintf("dk%03d", i) }
func dval(i int) []byte { return []byte(fmt.Sprintf("dv%03d", i)) }

// TestDurableCrashRecoveryEquivalence is the acceptance-criteria test: a
// cluster with durability enabled survives CrashReplica (a process-level
// crash that abandons unflushed log buffers) → reopen from disk → delta
// state transfer → epoch change with zero committed-transaction loss, and
// the recovered replica's store is exactly equal to a replica that never
// crashed.
func TestDurableCrashRecoveryEquivalence(t *testing.T) {
	dir := t.TempDir()
	verifyCleanShutdown(t, dir)
	c := newTestDB(t, durableConfig(dir))
	cl := newDBClient(t, c)

	for i := 0; i < 30; i++ {
		if err := cl.Put(dkey(i), dval(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	c.Admin().CrashReplica(0, 1)
	// Commits during the outage take the slow path (majority 2/3) and the
	// crashed replica must learn them all during recovery.
	for i := 30; i < 60; i++ {
		if err := cl.Put(dkey(i), dval(i)); err != nil {
			t.Fatalf("put %d with replica down: %v", i, err)
		}
	}
	if err := c.Admin().RecoverReplica(0, 1); err != nil {
		t.Fatalf("RecoverReplica: %v", err)
	}
	for i := 60; i < 70; i++ {
		if err := cl.Put(dkey(i), dval(i)); err != nil {
			t.Fatalf("put %d after recovery: %v", i, err)
		}
	}
	// The commit fan-out is asynchronous; an epoch change finalizes every
	// in-flight transaction on every replica so stores are comparable.
	if err := c.Admin().EpochChange(0); err != nil {
		t.Fatalf("EpochChange: %v", err)
	}
	time.Sleep(50 * time.Millisecond)

	healthy := c.replicaAt(0, 0).Store()
	recovered := c.replicaAt(0, 1).Store()
	for i := 0; i < 70; i++ {
		k := dkey(i)
		// Zero loss: every acknowledged Put is present on the recovered
		// replica with its committed value.
		rv, ok := recovered.Read(k)
		if !ok || string(rv.Value) != string(dval(i)) {
			t.Fatalf("recovered replica lost %s: %q ok=%v, want %q", k, rv.Value, ok, dval(i))
		}
		// Equivalence: identical to the never-crashed replica, version
		// timestamp included.
		hv, ok := healthy.Read(k)
		if !ok || string(hv.Value) != string(rv.Value) || hv.WTS != rv.WTS {
			t.Fatalf("divergence on %s: healthy %q@%v (ok=%v), recovered %q@%v",
				k, hv.Value, hv.WTS, ok, rv.Value, rv.WTS)
		}
	}

	if s, ok := c.Admin().WALStats(); !ok || s.Appends == 0 {
		t.Fatalf("WALStats = %+v ok=%v, want appends > 0", s, ok)
	}
}

// TestDurableFullClusterRestart closes a durable cluster gracefully and
// reopens the same data directory: every committed write and every preloaded
// key must come back, with no surviving donor to copy from.
func TestDurableFullClusterRestart(t *testing.T) {
	dir := t.TempDir()
	verifyCleanShutdown(t, dir)
	cfg := durableConfig(dir)

	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Load("preloaded", []byte("pl"))
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := cl.Put(dkey(i), dval(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	cl.Close()
	c.Close() // graceful: flushes and fsyncs every core's log

	c2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	cl2, err := c2.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for i := 0; i < 25; i++ {
		v, err := cl2.GetStrong(dkey(i))
		if err != nil || string(v) != string(dval(i)) {
			t.Fatalf("after restart %s = %q, %v; want %q", dkey(i), v, err, dval(i))
		}
	}
	if v, err := cl2.GetStrong("preloaded"); err != nil || string(v) != "pl" {
		t.Fatalf("preloaded key after restart = %q, %v", v, err)
	}
}

// TestDurableSnapshotRestart snapshots every replica mid-run (truncating the
// logs), keeps committing, restarts the whole cluster, and verifies both the
// pre- and post-snapshot writes come back.
func TestDurableSnapshotRestart(t *testing.T) {
	dir := t.TempDir()
	verifyCleanShutdown(t, dir)
	cfg := durableConfig(dir)

	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if err := cl.Put(dkey(i), dval(i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // let async commit fan-out apply
	for r := 0; r < cfg.Replicas; r++ {
		rep := c.replicaAt(0, r)
		if err := rep.WAL().Snapshot(rep.Store()); err != nil {
			t.Fatalf("snapshot replica %d: %v", r, err)
		}
	}
	for i := 15; i < 30; i++ {
		if err := cl.Put(dkey(i), dval(i)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	c.Close()

	c2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen after snapshot: %v", err)
	}
	defer c2.Close()
	cl2, err := c2.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for i := 0; i < 30; i++ {
		v, err := cl2.GetStrong(dkey(i))
		if err != nil || string(v) != string(dval(i)) {
			t.Fatalf("after snapshot+restart %s = %q, %v; want %q", dkey(i), v, err, dval(i))
		}
	}
}

// TestDurableBootReconcile pins the whole-cluster-restart reconciliation:
// after a non-graceful crash under SyncBatch each replica loses a different
// unfsynced log suffix, so the replayed stores diverge. Open must
// union-merge the group's stores before serving traffic, or single-replica
// reads would return inconsistent values for acknowledged writes. The test
// constructs the divergent directories directly — each replica's log holds a
// common record plus two records only it retained: one write, and one commit
// that only read a key nobody wrote. The read's timestamp must reach every
// replica too, or a peer could later admit a write below that read.
func TestDurableBootReconcile(t *testing.T) {
	dir := t.TempDir()
	verifyCleanShutdown(t, dir)
	cfg := durableConfig(dir)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	tsAt := func(n int64) timestamp.Timestamp { return timestamp.Timestamp{Time: n, ClientID: 1} }
	for r := 0; r < cfg.Replicas; r++ {
		w, _, err := wal.Open(filepath.Join(dir, fmt.Sprintf("p0-r%d", r)), cfg.Cores, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		common := message.Txn{
			ID:       timestamp.TxnID{Seq: 1, ClientID: 1},
			WriteSet: []message.WriteSetEntry{{Key: "common", Value: []byte("c")}},
		}
		w.Log(0).AppendCommit(&common, tsAt(50))
		only := message.Txn{
			ID:       timestamp.TxnID{Seq: uint64(10 + r), ClientID: 1},
			WriteSet: []message.WriteSetEntry{{Key: fmt.Sprintf("only%d", r), Value: []byte("v")}},
		}
		w.Log(0).AppendCommit(&only, tsAt(int64(100+r)))
		read := message.Txn{
			ID:      timestamp.TxnID{Seq: uint64(20 + r), ClientID: 1},
			ReadSet: []message.ReadSetEntry{{Key: fmt.Sprintf("read%d", r)}},
		}
		w.Log(0).AppendCommit(&read, tsAt(int64(200+r)))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for r := 0; r < cfg.Replicas; r++ {
		store := c.replicaAt(0, r).Store()
		for _, key := range []string{"common", "only0", "only1", "only2"} {
			if v, ok := store.Read(key); !ok || len(v.Value) == 0 {
				t.Fatalf("replica %d missing %q after boot reconcile (ok=%v)", r, key, ok)
			}
		}
		for from := 0; from < cfg.Replicas; from++ {
			key := fmt.Sprintf("read%d", from)
			if wts, rts := store.Meta(key); !wts.IsZero() || rts != tsAt(int64(200+from)) {
				t.Errorf("replica %d has %q at wts %v rts %v after boot reconcile, want no version and rts %v",
					r, key, wts, rts, tsAt(int64(200+from)))
			}
		}
	}
}

// TestDurableOldTimestampDelta pins the wall-clock delta axis: a commit
// applied on the donors during the outage with a timestamp far older than
// any TS margin (the sweeper/backup-coordinator case — finalization long
// after timestamp assignment) must still reach the recovering replica, or it
// would permanently serve stale data for that key.
func TestDurableOldTimestampDelta(t *testing.T) {
	dir := t.TempDir()
	verifyCleanShutdown(t, dir)
	c := newTestDB(t, durableConfig(dir))
	cl := newDBClient(t, c)

	for i := 0; i < 20; i++ {
		if err := cl.Put(dkey(i), dval(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Let the group commit fsync so the crashed replica replays a recent
	// watermark (forcing the TS delta filter to actually filter).
	time.Sleep(20 * time.Millisecond)
	c.Admin().CrashReplica(0, 1)

	// During the outage, the live replicas apply a commit whose timestamp is
	// an hour old — far beyond DeltaMargin, so the TS filter alone would
	// never ship it.
	oldTS := timestamp.Timestamp{Time: time.Now().Add(-time.Hour).UnixNano(), ClientID: 99}
	for _, r := range []int{0, 2} {
		c.replicaAt(0, r).Store().CommitWrite("stale-sweep", []byte("late"), oldTS)
	}

	if err := c.Admin().RecoverReplica(0, 1); err != nil {
		t.Fatalf("RecoverReplica: %v", err)
	}
	v, ok := c.replicaAt(0, 1).Store().Read("stale-sweep")
	if !ok || string(v.Value) != "late" || v.WTS != oldTS {
		t.Fatalf("recovered replica has stale-sweep = %q@%v ok=%v, want %q@%v",
			v.Value, v.WTS, ok, "late", oldTS)
	}
}

// TestDurableSyncPolicies smoke-tests each sync policy end to end.
func TestDurableSyncPolicies(t *testing.T) {
	for _, sync := range []SyncPolicy{SyncNone, SyncBatch, SyncAlways} {
		t.Run(sync.String(), func(t *testing.T) {
			dir := t.TempDir()
			verifyCleanShutdown(t, dir)
			cfg := durableConfig(dir)
			cfg.Durability.Sync = sync
			c, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := c.Client()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if err := cl.Put(dkey(i), dval(i)); err != nil {
					t.Fatal(err)
				}
			}
			cl.Close()
			c.Close()

			c2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			cl2, err := c2.Client()
			if err != nil {
				t.Fatal(err)
			}
			defer cl2.Close()
			for i := 0; i < 8; i++ {
				v, err := cl2.GetStrong(dkey(i))
				if err != nil || string(v) != string(dval(i)) {
					t.Fatalf("%v restart: %s = %q, %v", sync, dkey(i), v, err)
				}
			}
		})
	}
}
