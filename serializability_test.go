package meerkat

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"meerkat/internal/checker"
	"meerkat/internal/faultnet"
	"meerkat/internal/obs"
	"meerkat/internal/timestamp"
)

// stressConfig drives one randomized serializability stress run.
type stressConfig struct {
	cluster  Config
	clients  int
	txnsEach int
	keys     int
	// readOnlyFrac of transactions are pure reads; the rest are RMWs over
	// 1-3 keys.
	seed int64
	// ops mixes server-side increments into the traffic: roughly a third
	// of non-read-only transactions carry an Add on a random key alongside
	// their reads and writes, so the checker's value replay covers
	// commutative merges interleaved with plain OCC transactions.
	ops bool
	// roSnapshot routes the read-only transactions through the snapshot
	// fast path (Txn.ReadOnly): they commit with zero validation rounds
	// when confirmed and demote when not, and either way their reads join
	// the history for the checker to verify against the concurrent writes.
	roSnapshot bool
}

// runSerializabilityStress hammers the cluster with random multi-key
// transactions from concurrent clients and checks the committed history is
// one-copy serializable in timestamp order.
func runSerializabilityStress(t *testing.T, cfg stressConfig) (*checker.History, *DB) {
	t.Helper()
	c := newTestDB(t, cfg.cluster)
	initial := make(map[string]timestamp.Timestamp, cfg.keys)
	loadTS := timestamp.Timestamp{Time: 1, ClientID: 0}
	for i := 0; i < cfg.keys; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Load(k, []byte("0"))
		initial[k] = loadTS
	}

	hist := checker.New()
	for i := 0; i < cfg.keys; i++ {
		hist.SetInitialValue(fmt.Sprintf("k%d", i), []byte("0"))
	}
	var wg sync.WaitGroup
	for i := 0; i < cfg.clients; i++ {
		cl := newDBClient(t, c)
		wg.Add(1)
		go func(cl *Client, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < cfg.txnsEach; j++ {
				txn := cl.Begin()
				nKeys := 1 + rng.Intn(3)
				readOnly := rng.Intn(4) == 0
				if readOnly && cfg.roSnapshot {
					txn.ReadOnly()
				}
				ok := true
				seen := map[int]bool{}
				for k := 0; k < nKeys; k++ {
					ki := rng.Intn(cfg.keys)
					if seen[ki] {
						continue
					}
					seen[ki] = true
					key := fmt.Sprintf("k%d", ki)
					if _, err := txn.Read(key); err != nil {
						ok = false
						break
					}
					if !readOnly {
						txn.Write(key, []byte(fmt.Sprintf("c%d-%d", seed, j)))
					}
				}
				if !ok {
					continue
				}
				if cfg.ops && !readOnly && rng.Intn(3) == 0 {
					txn.Add(fmt.Sprintf("k%d", rng.Intn(cfg.keys)), 1)
				}
				if committed, err := txn.Commit(); err == nil && committed {
					hist.Add(checker.CommittedTxn{
						ID: txn.inner.ID(), TS: txn.inner.Timestamp(),
						ReadSet: txn.inner.ReadSet(), WriteSet: txn.inner.WriteSet(),
						OpSet:    txn.inner.OpSet(),
						ReadOnly: txn.CommittedReadOnly(),
					})
				}
			}
		}(cl, cfg.seed+int64(i))
	}
	wg.Wait()

	if hist.Len() == 0 {
		t.Fatal("nothing committed")
	}
	if dups := hist.CheckUniqueTimestamps(); dups != nil {
		t.Fatalf("duplicate commit timestamps: %v", dups)
	}
	if violations := hist.Check(initial); violations != nil {
		for _, v := range violations {
			t.Error(v)
		}
	}
	t.Logf("committed %d transactions", hist.Len())
	return hist, c
}

func TestSerializabilityMultiPartition(t *testing.T) {
	// Random multi-key transactions routinely span the three partitions;
	// the timestamp-order replay catches any fractured atomic commit.
	runSerializabilityStress(t, stressConfig{
		cluster:  Config{Shards: 3, Cores: 2, CommitTimeout: 50 * time.Millisecond},
		clients:  6,
		txnsEach: 40,
		keys:     8,
		seed:     100,
	})
}

func TestSerializabilityUnderReordering(t *testing.T) {
	// Randomized per-message delays and held-back messages reorder
	// deliveries on every link; the protocol must stay serializable
	// (timestamps, not arrival order, decide).
	runSerializabilityStress(t, stressConfig{
		cluster: Config{
			Cores: 2,
			Faults: &faultnet.Plan{Seed: 200, Rules: []faultnet.Rule{faultnet.EveryLink(faultnet.Rule{
				DelayProb: 0.5, Delay: 200 * time.Microsecond, Jitter: 600 * time.Microsecond,
				ReorderProb: 0.1,
			})}},
			CommitTimeout: 50 * time.Millisecond,
			Retries:       20,
		},
		clients:  6,
		txnsEach: 30,
		keys:     6,
		seed:     200,
	})
}

func TestSerializabilityHighContention(t *testing.T) {
	// Two keys, many writers: worst case for OCC. Lots of aborts are fine;
	// any serializability violation is not.
	hist, _ := runSerializabilityStress(t, stressConfig{
		cluster:  Config{Cores: 2, CommitTimeout: 50 * time.Millisecond},
		clients:  8,
		txnsEach: 50,
		keys:     2,
		seed:     300,
	})
	_ = hist
}

func TestSerializabilityMixedOps(t *testing.T) {
	// Commutative increments interleaved with plain RMWs and writes across
	// two partitions. The checker's value replay recomputes every merge in
	// timestamp order and verifies each read's value hash, so a merge that
	// rewrote a version some reader had already observed would be flagged.
	runSerializabilityStress(t, stressConfig{
		cluster:  Config{Shards: 2, Cores: 2, CommitTimeout: 50 * time.Millisecond},
		clients:  6,
		txnsEach: 40,
		keys:     4,
		seed:     400,
		ops:      true,
	})
}

func TestSerializabilityReadOnlySnapshots(t *testing.T) {
	// Snapshot read-only transactions racing plain writes AND commutative
	// increments across two partitions. The dangerous interleavings are (a)
	// an RO snapshot straddling a prepared-but-undecided writer — the per-key
	// rts guard must either show the write or prevent it from committing at
	// or below the snapshot — and (b) an increment merging below a version an
	// RO transaction already read, which the checker's value replay catches
	// by hash. RO transactions that demote still land in the history as
	// validated reads, so every path is checked.
	hist, c := runSerializabilityStress(t, stressConfig{
		cluster:    Config{Shards: 2, Cores: 2, CommitTimeout: 50 * time.Millisecond},
		clients:    8,
		txnsEach:   50,
		keys:       4,
		seed:       500,
		ops:        true,
		roSnapshot: true,
	})
	snap := c.Admin().Obs().Snapshot()
	if snap.Counters[obs.TxnCommitRO] == 0 {
		t.Fatal("no transaction committed on the read-only fast path; the stress exercised nothing")
	}
	t.Logf("ro commits %d, fallbacks %d, of %d total",
		snap.Counters[obs.TxnCommitRO], snap.Counters[obs.ROFallback], hist.Len())
}

func TestClientStats(t *testing.T) {
	c := newTestDB(t, Config{})
	cl := newDBClient(t, c)
	for i := 0; i < 5; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	committed, _ := cl.Stats()
	if committed < 5 {
		t.Fatalf("committed = %d, want >= 5", committed)
	}
}
