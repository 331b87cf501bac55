package chaos

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"meerkat"
	"meerkat/internal/faultnet"
)

// dumpArtifact persists the run's fault schedule when CHAOS_ARTIFACT_DIR is
// set, so a CI failure leaves behind the exact plan needed to replay it.
func dumpArtifact(t *testing.T, res *Result) {
	t.Helper()
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" || res == nil || len(res.Plan) == 0 {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos: cannot create artifact dir: %v", err)
		return
	}
	path := filepath.Join(dir, t.Name()+"-plan.json")
	if err := os.WriteFile(path, res.Plan, 0o644); err != nil {
		t.Logf("chaos: cannot write fault schedule: %v", err)
		return
	}
	t.Logf("chaos: fault schedule written to %s", path)
}

// TestChaosSmoke is the tier-1 chaos gate: the default schedule (ambient
// loss, a partition window, one replica crash and restart) with a fixed seed
// must yield a fully resolved, one-copy-serializable history, and the crash
// window must force at least one slow-path commit.
func TestChaosSmoke(t *testing.T) {
	res, err := Run(Config{Seed: 7, Timeout: 90 * time.Second})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if !res.Ok() {
		dumpArtifact(t, res)
		t.Fatalf("checker rejected history: unresolved=%d violations=%v dup_ts=%d",
			res.Unresolved, res.Violations, res.DupTimestamps)
	}
	if res.Committed == 0 {
		dumpArtifact(t, res)
		t.Fatal("no transactions committed")
	}
	if res.Crashes != 1 || res.Restarts != 1 {
		dumpArtifact(t, res)
		t.Fatalf("lifecycle mismatch: crashes=%d restarts=%d, want 1/1", res.Crashes, res.Restarts)
	}
	if res.SlowCommits == 0 {
		dumpArtifact(t, res)
		t.Fatalf("no slow-path commits during the crash window (fast=%d)", res.FastCommits)
	}
	if res.Faults.Dropped == 0 || res.Faults.Blackholed == 0 {
		dumpArtifact(t, res)
		t.Fatalf("injector idle: %+v", res.Faults)
	}
	t.Logf("committed=%d resolved=%d run_errors=%d fast=%d slow=%d faults=%+v",
		res.Committed, res.Resolved, res.RunErrors, res.FastCommits, res.SlowCommits, res.Faults)
}

// TestChaosUDP is the smoke schedule over loopback UDP: every message is
// decoded into a pooled struct whose bytes die at its release, so the crash
// window's slow path and backup coordinators, the restart's state import and
// the epoch change's merge install all run across a real decode, with released
// arenas poisoned under -race. A record that aliased decoded bytes would apply
// its commit under a 0xDB key — a committed write lost at every replica, which
// the run cannot resolve and the checker rejects. (A cold path that aliased
// them is not caught here: validation routes around one replica's garbage.
// TestColdKeepersOverUDP in the root package is that gate.)
func TestChaosUDP(t *testing.T) {
	res, err := Run(Config{Seed: 7, Ops: true, ReadOnlyMix: 0.2, Timeout: 90 * time.Second, UDPBasePort: 31000})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if !res.Ok() {
		dumpArtifact(t, res)
		t.Fatalf("checker rejected history over UDP: unresolved=%d violations=%v dup_ts=%d",
			res.Unresolved, res.Violations, res.DupTimestamps)
	}
	if res.Committed == 0 || res.Crashes != 1 || res.Restarts != 1 || res.SlowCommits == 0 {
		dumpArtifact(t, res)
		t.Fatalf("committed=%d crashes=%d restarts=%d slow=%d: the schedule did not run",
			res.Committed, res.Crashes, res.Restarts, res.SlowCommits)
	}
	if res.Faults.Dropped == 0 || res.Faults.Blackholed == 0 {
		dumpArtifact(t, res)
		t.Fatalf("injector idle: %+v", res.Faults)
	}
	t.Logf("committed=%d resolved=%d run_errors=%d fast=%d slow=%d ro=%d faults=%+v",
		res.Committed, res.Resolved, res.RunErrors, res.FastCommits, res.SlowCommits, res.ROCommits, res.Faults)
}

// TestChaosReproducible runs the same seeded configuration twice and checks
// the determinism contract: byte-identical fault schedules and the same
// checker verdict.
func TestChaosReproducible(t *testing.T) {
	cfg := Config{
		Seed:     21,
		Clients:  2,
		Keys:     64,
		TailTxns: 10,
		Timeout:  60 * time.Second,
		Plan: &faultnet.Plan{
			Seed: 21,
			Rules: []faultnet.Rule{{
				ID:      "ambient-loss",
				SrcNode: faultnet.Any, DstNode: faultnet.Any,
				SrcCore: faultnet.Any, DstCore: faultnet.Any,
				DropProb: 0.02,
			}},
			Events: []faultnet.Event{
				{At: 200, Op: faultnet.OpPartition, Groups: [][]uint32{{1}}},
				{At: 600, Op: faultnet.OpHeal},
				{At: 1000, Op: faultnet.OpCrash, Node: 2},
				{At: 2200, Op: faultnet.OpRestart, Node: 2},
			},
		},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !bytes.Equal(a.Plan, b.Plan) {
		t.Fatal("fault schedules differ between runs with the same seed")
	}
	if !a.Ok() || !b.Ok() {
		dumpArtifact(t, a)
		t.Fatalf("verdicts: a.Ok=%v b.Ok=%v, want both true (a: unresolved=%d violations=%v; b: unresolved=%d violations=%v)",
			a.Ok(), b.Ok(), a.Unresolved, a.Violations, b.Unresolved, b.Violations)
	}
}

// TestDefaultPlanStable pins DefaultPlan's serialized form: the dump must be
// identical across calls (the reproducibility artifact is pure data).
func TestDefaultPlanStable(t *testing.T) {
	a, err := DefaultPlan(7).Dump()
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultPlan(7).Dump()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("DefaultPlan dump not stable")
	}
	if p, err := faultnet.Load(a); err != nil || len(p.Events) != 4 {
		t.Fatalf("round trip: %v, events=%d", err, len(p.Events))
	}
}

// TestChaosReadOnlyMix folds snapshot read-only transactions into the fault
// schedule: 30% of the traffic is marked RO and rides the one-round fast
// path when the watermark confirms, racing ambient loss, a partition
// window, and a replica crash+restart. Dropped replies and the downed
// replica shrink the confirmation quorum, so this exercises the retry,
// round-down, and demotion paths too; whatever path each transaction took,
// the checker must accept the merged history, and at least one transaction
// must actually have committed read-only for the run to count.
func TestChaosReadOnlyMix(t *testing.T) {
	res, err := Run(Config{Seed: 11, Ops: true, ReadOnlyMix: 0.3, Timeout: 90 * time.Second})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if !res.Ok() {
		dumpArtifact(t, res)
		t.Fatalf("checker rejected history with RO mix: unresolved=%d violations=%v dup_ts=%d",
			res.Unresolved, res.Violations, res.DupTimestamps)
	}
	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	if res.ROCommits == 0 {
		dumpArtifact(t, res)
		t.Fatalf("no read-only fast-path commits under the mix (fallbacks=%d)", res.ROFallbacks)
	}
	t.Logf("committed=%d ro=%d ro_fallbacks=%d fast=%d slow=%d faults=%+v",
		res.Committed, res.ROCommits, res.ROFallbacks, res.FastCommits, res.SlowCommits, res.Faults)
}

// TestChaosDiskRecovery is TestChaosSmoke with durability enabled: the
// injected crash abandons the victim's unflushed WAL buffers, and its
// restart replays snapshot + logs from disk before the delta state
// transfer. The history must stay one-copy serializable — persistence must
// not re-introduce coordination bugs or lose acknowledged commits. Ops is
// set, so the RMW traffic ships as server-side increments and the verdict
// covers commutative-op replay through the WAL and crash recovery: the
// checker's value replay recomputes every merge and compares read hashes.
func TestChaosDiskRecovery(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(Config{
		Seed:    7,
		Ops:     true,
		Timeout: 90 * time.Second,
		Durability: meerkat.Durability{
			DataDir:             dir,
			GroupCommitInterval: time.Millisecond,
			SnapshotInterval:    100 * time.Millisecond, // exercise truncation mid-run
		},
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if !res.Ok() {
		dumpArtifact(t, res)
		t.Fatalf("checker rejected durable history: unresolved=%d violations=%v dup_ts=%d",
			res.Unresolved, res.Violations, res.DupTimestamps)
	}
	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	if res.Crashes < 1 || res.Restarts < 1 {
		t.Fatalf("lifecycle mismatch: crashes=%d restarts=%d, want >= 1 each", res.Crashes, res.Restarts)
	}
	// The run must actually have hit the disk: every replica directory gets
	// per-core logs, and the crashed replica's survive into recovery.
	for r := 0; r < 3; r++ {
		repDir := filepath.Join(dir, fmt.Sprintf("p0-r%d", r))
		ents, err := os.ReadDir(repDir)
		if err != nil || len(ents) == 0 {
			t.Fatalf("replica %d left no durability state in %s: %v", r, repDir, err)
		}
	}
}
