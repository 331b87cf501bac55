package meerkat_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"meerkat"
)

// udpHotpath is the deployment of the UDP rows of TestCommitAllocGate, one at a
// time on the same ports.
var udpHotpath = meerkat.Config{Transport: meerkat.TransportUDP, UDPBasePort: 21000}

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

// crossShardKeys replaces keys by perGroup pre-loaded keys on each of the
// first `groups` replica groups of db, interleaved so that every run of
// `groups` consecutive keys touches them all. The shard map is asked where
// each candidate lands: "key-%08d" 0..63 fall 50/14/0/0 on four groups,
// because shardmap.Hash is raw FNV-1a and a trailing counter barely moves
// its high bits (ROADMAP, robustness).
func crossShardKeys(tb testing.TB, db *meerkat.DB, groups, perGroup int) []string {
	tb.Helper()
	m := db.Admin().ShardMap()
	byGroup := make([][]string, groups)
	for i, short := 0, groups; short > 0; i++ {
		if i == 1<<20 {
			tb.Fatalf("no %d keys on each of %d groups among 2^20 candidates", perGroup, groups)
		}
		key := fmt.Sprintf("%d-key", i)
		if g := m.GroupForKey(key); g < groups && len(byGroup[g]) < perGroup {
			db.Load(key, []byte("v"))
			if byGroup[g] = append(byGroup[g], key); len(byGroup[g]) == perGroup {
				short--
			}
		}
	}
	var keys []string
	for j := 0; j < perGroup; j++ {
		for g := range byGroup {
			keys = append(keys, byGroup[g][j])
		}
	}
	return keys
}

// The commit shapes the benchmarks and gates share. Each takes the
// deployment's pre-loaded keys; the single-key shapes use the first.

var hotpathValue = []byte("v2")

// The shapes are what a transaction does before it commits; commitX takes
// one through Begin + Commit, the gate's run- rows hand one to Client.Run.

// buildRMW is the commit hot path in its cheapest shape: one read, one
// write, one partition — the N = 1 case of the coordinator's validate round.
func buildRMW(txn *meerkat.Txn, keys []string) error {
	if _, err := txn.Read(keys[0]); err != nil {
		return err
	}
	txn.Write(keys[0], hotpathValue)
	return nil
}

// buildRMWRing is buildRMW on the next key of the ring at every call. Over UDP
// a commit reaches the replicas well after Run has returned, and a closed loop
// on one key reads it, two times in three, at a replica that has not applied
// the last write yet — an abort and a second attempt, which is not what an
// allocation gate is counting.
func buildRMWRing() func(*meerkat.Txn, []string) error {
	next := 0
	return func(txn *meerkat.Txn, keys []string) error {
		next++
		return buildRMW(txn, keys[next%len(keys):])
	}
}

// buildReadOnly is the read-only fast path in its cheapest shape: one
// snapshot read, local commit — zero validation rounds, zero commit
// messages.
func buildReadOnly(txn *meerkat.Txn, keys []string) error {
	txn.ReadOnly()
	_, err := txn.Read(keys[0])
	return err
}

// buildTimeline is the Retwis get-timeline shape: every key in one ReadMany.
func buildTimeline(txn *meerkat.Txn, keys []string) error {
	_, err := txn.ReadMany(keys)
	return err
}

// buildCrossShard is the multi-partition commit: one batched read of all
// the keys, a write to the first of every group, one validate round over
// every group touched (keys come from crossShardKeys, three groups).
func buildCrossShard(txn *meerkat.Txn, keys []string) error {
	if err := buildTimeline(txn, keys); err != nil {
		return err
	}
	for _, key := range keys[:3] {
		txn.Write(key, hotpathValue)
	}
	return nil
}

func commitRMW(tb testing.TB, cl *meerkat.Client, keys []string) {
	txn := cl.Begin()
	if err := buildRMW(txn, keys); err != nil {
		tb.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// commitIncrement is the op-only shape: one server-side increment, no read
// round trip — the hot-counter pattern the commutative ops exist for.
func commitIncrement(tb testing.TB, cl *meerkat.Client, keys []string) {
	txn := cl.Begin()
	txn.Add(keys[0], 1)
	if _, err := txn.Commit(); err != nil {
		tb.Fatal(err)
	}
}

func commitReadOnly(tb testing.TB, cl *meerkat.Client, keys []string) {
	txn := cl.Begin()
	if err := buildReadOnly(txn, keys); err != nil {
		tb.Fatal(err)
	}
	if ok, err := txn.Commit(); err != nil || !ok {
		tb.Fatalf("ro commit: ok=%v err=%v", ok, err)
	}
	if !txn.CommittedReadOnly() {
		tb.Fatal("fast path not taken; this would measure the wrong path")
	}
}

func commitCrossShard(tb testing.TB, cl *meerkat.Client, keys []string) {
	txn := cl.Begin()
	if err := buildCrossShard(txn, keys); err != nil {
		tb.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// benchCommit runs one commit shape on a deployment per cfg: on its one
// pre-loaded key, or with groups > 0 on two keys on each of that many groups.
func benchCommit(b *testing.B, cfg meerkat.Config, groups int, commit func(testing.TB, *meerkat.Client, []string)) {
	db, cl, keys := newHotpath(b, cfg, 1)
	if groups > 0 {
		keys = crossShardKeys(b, db, groups, 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit(b, cl, keys)
	}
}

// BenchmarkCommitSinglePartition's allocation count gates the churn-free
// commit (see EXPERIMENTS.md).
func BenchmarkCommitSinglePartition(b *testing.B) { benchCommit(b, meerkat.Config{}, 0, commitRMW) }

// BenchmarkShardedCommitSingleShard is identical traffic on the deployment
// shape of the "sharded" gate below: a real two-range map.
func BenchmarkShardedCommitSingleShard(b *testing.B) {
	benchCommit(b, meerkat.Config{Shards: 2}, 0, commitRMW)
}

// BenchmarkCommitCrossShard is the shape of the "cross-shard" gate: 6 reads
// and 3 writes over three of four groups.
func BenchmarkCommitCrossShard(b *testing.B) {
	benchCommit(b, meerkat.Config{Shards: 4}, 3, commitCrossShard)
}

// BenchmarkCommitDurable adds SyncBatch durability, for eyeballing the WAL's
// hot-path cost.
func BenchmarkCommitDurable(b *testing.B) {
	benchCommit(b, meerkat.Config{Durability: meerkat.Durability{DataDir: b.TempDir()}}, 0, commitRMW)
}

func BenchmarkCommitIncrement(b *testing.B) { benchCommit(b, meerkat.Config{}, 0, commitIncrement) }

// BenchmarkReadOnlyTxn: compare against BenchmarkCommitSinglePartition for
// the two-round baseline.
func BenchmarkReadOnlyTxn(b *testing.B) { benchCommit(b, meerkat.Config{}, 0, commitReadOnly) }

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
		commitTimeline(b, cl, keys, readOnly)
	}
}

// commitTimeline reads every key in one ReadMany and commits: validated, or
// with readOnly on the snapshot fast path.
func commitTimeline(tb testing.TB, cl *meerkat.Client, keys []string, readOnly bool) {
	txn := cl.Begin()
	if readOnly {
		txn.ReadOnly()
	}
	if err := buildTimeline(txn, keys); err != nil {
		tb.Fatal(err)
	}
	if ok, err := txn.Commit(); err != nil || !ok {
		tb.Fatalf("commit: ok=%v err=%v", ok, err)
	}
}

// TestCommitAllocGate pins each commit shape's allocation count end to end
// (coordinator + transport + all three replicas' handler goroutines, since
// AllocsPerRun counts global mallocs). Every gate is the measured count + 1.
// A row commits through Begin + Commit, or — the run- rows, the path every
// suite workload, every example and internal/chaos take — hands a shape,
// bound once, to Client.Run.
func TestCommitAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs without -race")
	}
	for _, g := range []struct {
		name   string
		cfg    meerkat.Config
		groups int // 0: the pre-loaded keys; else two keys on each of that many groups
		keys   int // keys to pre-load; 0 means one
		commit func(testing.TB, *meerkat.Client, []string)
		run    func(*meerkat.Txn, []string) error
		runs   int
		max    float64
	}{
		// The pre-batching baseline was 39 allocs/op and the churn-free
		// fan-out 18, eleven of them the message structs of one commit
		// (read + reply, three validates + replies, three commits); 8 with
		// every message recycled by its final consumer; 5 with the replicas'
		// records carved out of slabs and the coordinator's one lazily armed
		// timer. Since each key's versions live in one array it allocates once,
		// it measures 3: the three arrays a fresh Txn from Begin grows (read
		// set, read values, write set). The replicas install into arrays the
		// key already has, and what is shipped is a span of the coordinator's
		// bump chunks: 1/256 of an object for the read and again for the write.
		{name: "single", commit: commitRMW, runs: 200, max: 4},
		// The same commit over a real two-range map. Shard-map routing is
		// an atomic load, a hash, and a binary search, and a transaction
		// that touches one group is carved like any other: equal to
		// "single".
		{name: "sharded", cfg: meerkat.Config{Shards: 2}, commit: commitRMW, runs: 200, max: 4},
		// Appending the commit record to the per-core write-ahead log stays
		// allocation-free steady-state (persistent scratch message, reused
		// pending buffer): the same gate as in memory.
		{name: "durable", cfg: meerkat.Config{Durability: meerkat.Durability{DataDir: t.TempDir()}}, commit: commitRMW, runs: 1000, max: 4},
		// Shipping the operation instead of read-version + blind write adds
		// no churn (the op entries ride the same pooled messages and scratch
		// buffers). It measures 7: the fresh Txn's op set, and on each replica
		// the op's merge record and its materialized value.
		{name: "increment", commit: commitIncrement, runs: 200, max: 8},
		// Dropping the validation round must not smuggle in churn: 12 at
		// introduction, six of them the broadcast snapshot read and its
		// three replies; 6 with messages recycled; 2 with the request's keys
		// and every reply's reads in arrays the pooled messages keep.
		{name: "read-only", commit: commitReadOnly, runs: 200, max: 3},
		// 6 reads and 3 writes over three of four groups: one validate round
		// on the caller's goroutine, 7 objects, the fresh Txn's sets grown by
		// append. It was 52 when every touched group cost a goroutine, two
		// timers, a broadcast scratch and its own read and write sets grown by
		// append, 18 when every read request and reply allocated its keys and
		// reads, 13 when every commit made the two arrays its pieces were
		// carved from, and 11 while every write cost each replica a version
		// node.
		{name: "cross-shard", cfg: meerkat.Config{Shards: 4}, groups: 3, commit: commitCrossShard, runs: 200, max: 8},
		// The Retwis get-timeline shape, validated: one ReadMany of ten keys
		// and a commit, 3 objects, all the fresh Txn's: its results buffer and
		// the read set's two arrays. The read round allocates nothing.
		{name: "timeline-10", keys: 10, commit: func(tb testing.TB, cl *meerkat.Client, keys []string) {
			commitTimeline(tb, cl, keys, false)
		}, runs: 200, max: 4},
		// Under Run the client's half of a transaction allocates nothing: the
		// Txn and its wrapper are the client's, its sets keep their capacity,
		// the shipped body is a span of a bump chunk. Nor do the replicas'
		// installs, into arrays the keys already have. What is left is the
		// cross-shard row's 1, where nearly every Run takes two attempts (the
		// first reads at a replica still applying the previous commit): record
		// slabs and record-map growth.
		{name: "run-rmw", run: buildRMW, runs: 200, max: 1},
		{name: "run-read-only", run: buildReadOnly, runs: 200, max: 1},
		{name: "run-timeline-10", keys: 10, run: buildTimeline, runs: 200, max: 1},
		{name: "run-cross-shard", cfg: meerkat.Config{Shards: 4}, groups: 3, run: buildCrossShard, runs: 200, max: 2},
		// The same bodies over loopback UDP, where every message is decoded
		// into a pooled struct that keeps its arena and its set arrays, a
		// record copies the body it keeps into its core's bump chunks, and a
		// read round copies the values it hands back into its own. Each is a
		// fraction of an object per transaction, so all three measure 0.
		{name: "udp-run-rmw", cfg: udpHotpath, keys: 8, run: buildRMWRing(), runs: 200, max: 1},
		{name: "udp-run-read-only", cfg: udpHotpath, run: buildReadOnly, runs: 200, max: 1},
		{name: "udp-run-timeline-10", cfg: udpHotpath, keys: 10, run: buildTimeline, runs: 200, max: 1},
	} {
		t.Run(g.name, func(t *testing.T) {
			db, cl, keys := newHotpath(t, g.cfg, max(g.keys, 1))
			if g.groups > 0 {
				keys = crossShardKeys(t, db, g.groups, 2)
			}
			commit := func() { g.commit(t, cl, keys) }
			if g.run != nil {
				ctx, body := context.Background(), func(txn *meerkat.Txn) error { return g.run(txn, keys) }
				commit = func() {
					if err := cl.Run(ctx, body); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Warm the coordinator's timer, the trecord maps and the WAL
			// pending/spare buffer pair, and let the group-commit goroutine
			// complete a few cycles, so the gate measures steady state
			// rather than growth.
			for i := 0; i < 30; i++ {
				commit()
			}
			time.Sleep(10 * time.Millisecond)
			allocs := testing.AllocsPerRun(g.runs, commit)
			t.Logf("%s: %v objects/op, gate %v", g.name, allocs, g.max)
			if allocs > g.max {
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
