package meerkat_test

import (
	"fmt"
	"testing"
	"time"

	"meerkat"
)

// newHotpath opens a deployment per cfg with nkeys pre-loaded keys and one
// client, for the end-to-end hot-path benchmarks and allocation gates.
func newHotpath(tb testing.TB, cfg meerkat.Config, nkeys int) (*meerkat.DB, *meerkat.Client, []string) {
	tb.Helper()
	db, err := meerkat.Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(db.Close)
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
		db.Load(keys[i], []byte("v"))
	}
	cl, err := db.Client()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	return db, cl, keys
}

// The three single-key commit shapes the benchmarks and gates share.

var hotpathValue = []byte("v2")

// commitRMW is the commit hot path in its cheapest shape: one read, one
// write, single shard — so the validate phase runs inline with the
// coordinator's reusable timers and scratch.
func commitRMW(tb testing.TB, cl *meerkat.Client, key string) {
	txn := cl.Begin()
	if _, err := txn.Read(key); err != nil {
		tb.Fatal(err)
	}
	txn.Write(key, hotpathValue)
	if _, err := txn.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// commitIncrement is the op-only shape: one server-side increment, no read
// round trip — the hot-counter pattern the commutative ops exist for.
func commitIncrement(tb testing.TB, cl *meerkat.Client, key string) {
	txn := cl.Begin()
	txn.Add(key, 1)
	if _, err := txn.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// commitReadOnly is the read-only fast path in its cheapest shape: one
// snapshot read, local commit — zero validation rounds, zero commit
// messages.
func commitReadOnly(tb testing.TB, cl *meerkat.Client, key string) {
	txn := cl.Begin()
	txn.ReadOnly()
	if _, err := txn.Read(key); err != nil {
		tb.Fatal(err)
	}
	if ok, err := txn.Commit(); err != nil || !ok {
		tb.Fatalf("ro commit: ok=%v err=%v", ok, err)
	}
	if !txn.CommittedReadOnly() {
		tb.Fatal("fast path not taken; this would measure the wrong path")
	}
}

func benchCommit(b *testing.B, cfg meerkat.Config, commit func(testing.TB, *meerkat.Client, string)) {
	_, cl, keys := newHotpath(b, cfg, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit(b, cl, keys[0])
	}
}

// BenchmarkCommitSinglePartition's allocation count gates the churn-free
// fan-out (see EXPERIMENTS.md).
func BenchmarkCommitSinglePartition(b *testing.B) { benchCommit(b, meerkat.Config{}, commitRMW) }

// BenchmarkShardedCommitSingleShard is identical traffic on the deployment
// shape of the "sharded" gate below.
func BenchmarkShardedCommitSingleShard(b *testing.B) { benchCommit(b, meerkat.Config{}, commitRMW) }

// BenchmarkCommitDurable adds SyncBatch durability, for eyeballing the WAL's
// hot-path cost.
func BenchmarkCommitDurable(b *testing.B) {
	benchCommit(b, meerkat.Config{Durability: meerkat.Durability{DataDir: b.TempDir()}}, commitRMW)
}

func BenchmarkCommitIncrement(b *testing.B) { benchCommit(b, meerkat.Config{}, commitIncrement) }

// BenchmarkReadOnlyTxn: compare against BenchmarkCommitSinglePartition for
// the two-round baseline.
func BenchmarkReadOnlyTxn(b *testing.B) { benchCommit(b, meerkat.Config{}, commitReadOnly) }

// BenchmarkTxnTimeline10 is the Retwis get-timeline shape: a read-only
// transaction over ten keys, batched through ReadMany into one execution
// round trip and then validated.
func BenchmarkTxnTimeline10(b *testing.B) { benchTimeline10(b, false) }

// BenchmarkReadOnlyTxnTimeline10 is the same shape on the fast path: ten
// keys in one snapshot round, local commit.
func BenchmarkReadOnlyTxnTimeline10(b *testing.B) { benchTimeline10(b, true) }

func benchTimeline10(b *testing.B, readOnly bool) {
	_, cl, keys := newHotpath(b, meerkat.Config{}, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := cl.Begin()
		if readOnly {
			txn.ReadOnly()
		}
		if _, err := txn.ReadMany(keys); err != nil {
			b.Fatal(err)
		}
		if ok, err := txn.Commit(); err != nil || !ok {
			b.Fatalf("commit: ok=%v err=%v", ok, err)
		}
	}
}

// TestCommitAllocGate pins each commit shape's allocation count end to end
// (coordinator + transport + all three replicas' handler goroutines, since
// AllocsPerRun counts global mallocs). Every gate is the measured count + 1.
func TestCommitAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs without -race")
	}
	for _, g := range []struct {
		name   string
		cfg    meerkat.Config
		commit func(testing.TB, *meerkat.Client, string)
		runs   int
		max    float64
	}{
		// The pre-batching baseline was 39 allocs/op and the churn-free
		// fan-out 18, eleven of them the message structs of one commit
		// (read + reply, three validates + replies, three commits). With
		// every message recycled by its final consumer it measures 8.
		{"single", meerkat.Config{}, commitRMW, 200, 9},
		// Shard-map routing is an atomic load, a hash, and a binary search:
		// zero allocations. Every client has routed by the map since the
		// static route was deleted, so this row now repeats "single" on the
		// default one-range map; over a real two-range map (Shards: 2) the
		// same commit measures 11, which no gate pins yet (ROADMAP).
		{"sharded", meerkat.Config{}, commitRMW, 200, 9},
		// Appending the commit record to the per-core write-ahead log stays
		// allocation-free steady-state (persistent scratch message, reused
		// pending buffer): the same gate as in memory.
		{"durable", meerkat.Config{Durability: meerkat.Durability{DataDir: t.TempDir()}}, commitRMW, 1000, 9},
		// Shipping the operation instead of read-version + blind write adds
		// no churn (the op entries ride the same pooled messages and scratch
		// buffers). It measures 10 — each replica materializes the merged
		// value — against 19 before messages were recycled.
		{"increment", meerkat.Config{}, commitIncrement, 200, 11},
		// Dropping the validation round must not smuggle in churn: 12 at
		// introduction, six of them the broadcast snapshot read and its
		// three replies; 6 with messages recycled.
		{"read-only", meerkat.Config{}, commitReadOnly, 200, 7},
	} {
		t.Run(g.name, func(t *testing.T) {
			_, cl, keys := newHotpath(t, g.cfg, 1)
			commit := func() { g.commit(t, cl, keys[0]) }
			// Warm the coordinator's reusable timers, the trecord maps and
			// the WAL pending/spare buffer pair, and let the group-commit
			// goroutine complete a few cycles, so the gate measures steady
			// state rather than growth.
			for i := 0; i < 30; i++ {
				commit()
			}
			time.Sleep(10 * time.Millisecond)
			if allocs := testing.AllocsPerRun(g.runs, commit); allocs > g.max {
				t.Fatalf("%s commit allocated %v objects/op, want <= %v", g.name, allocs, g.max)
			}
		})
	}
}

// TestEmptyTxnCommitsFree double-checks the empty-transaction short-circuit
// from outside the package: no messages and no per-commit heap garbage.
func TestEmptyTxnCommitsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs without -race")
	}
	cluster, cl, _ := newHotpath(t, meerkat.Config{}, 1)
	commit := func() {
		txn := cl.Begin()
		if ok, err := txn.Commit(); err != nil || !ok {
			t.Fatalf("empty commit: ok=%v err=%v", ok, err)
		}
	}
	commit()
	sent0, _, _ := cluster.Admin().NetworkStats()
	allocs := testing.AllocsPerRun(100, commit)
	sent1, _, _ := cluster.Admin().NetworkStats()
	if sent1 != sent0 {
		t.Fatalf("empty commits sent %d messages, want 0", sent1-sent0)
	}
	if allocs > 1 { // the Txn itself
		t.Fatalf("empty commit allocated %v objects/op, want <= 1", allocs)
	}
}
