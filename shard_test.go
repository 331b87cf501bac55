package meerkat

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"meerkat/internal/checker"
	"meerkat/internal/faultnet"
	"meerkat/internal/shardmap"
	"meerkat/internal/timestamp"
)

func newTestDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	if cfg.Cores == 0 {
		cfg.Cores = 2
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(db.Close)
	return db
}

// lossy is a fault plan that drops every message, on every link, with
// probability p.
func lossy(seed int64, p float64) *faultnet.Plan {
	return &faultnet.Plan{Seed: seed, Rules: []faultnet.Rule{faultnet.EveryLink(faultnet.Rule{DropProb: p})}}
}

func newDBClient(t *testing.T, db *DB, opts ...ClientOption) *Client {
	t.Helper()
	cl, err := db.Client(opts...)
	if err != nil {
		t.Fatalf("DB.Client: %v", err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// keysOnShard generates n distinct keys hashing into the given group under
// the DB's current map (for tests that need to target a specific shard).
func keysOnShard(db *DB, group, n int) []string {
	m := db.source.Current()
	var out []string
	for i := 0; len(out) < n; i++ {
		k := fmt.Sprintf("sk%d", i)
		if m.GroupForKey(k) == group {
			out = append(out, k)
		}
	}
	return out
}

// keysByHashHalf generates n distinct keys split evenly between the lower and
// upper halves of the hash space — so a first split (which moves the upper
// half) moves exactly half of them.
func keysByHashHalf(n int) []string {
	var lower, upper []string
	for i := 0; len(lower)+len(upper) < n; i++ {
		k := fmt.Sprintf("ck%d", i)
		if shardmap.Hash(k) < 1<<31 {
			if len(lower) < (n+1)/2 {
				lower = append(lower, k)
			}
		} else if len(upper) < n/2 {
			upper = append(upper, k)
		}
	}
	return append(lower, upper...)
}

func TestOpenDefaultsSingleShard(t *testing.T) {
	db := newTestDB(t, Config{})
	owned, provisioned := db.Admin().Shards()
	if owned != 1 || provisioned != 1 {
		t.Fatalf("shards = (%d, %d), want (1, 1)", owned, provisioned)
	}
	if v := db.Admin().ShardMap().Version(); v != 1 {
		t.Fatalf("map version = %d, want 1", v)
	}
	cl := newDBClient(t, db)
	if err := cl.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := cl.GetStrong("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("GetStrong = %q, %v", got, err)
	}
	// A second client of the one-shard DB, on the default route.
	scl := newDBClient(t, db)
	if err := scl.Put("k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
}

func TestOpenConfigErrors(t *testing.T) {
	if _, err := Open(Config{Shards: 3, MaxShards: 2}); err == nil {
		t.Error("Open accepted MaxShards < Shards")
	}

	db := newTestDB(t, Config{Shards: 2})
	if _, err := db.Client(WithPipeline(2)); err == nil {
		t.Error("Client accepted a pipeline window > 1; that is Session's job")
	}
	if s, err := db.Session(WithPipeline(3)); err != nil || s.Window() != 3 {
		t.Errorf("Session(WithPipeline(3)) = window %v, %v", s.Window(), err)
	} else {
		s.Close()
	}
}

func TestShardedCrossShardTxn(t *testing.T) {
	db := newTestDB(t, Config{Shards: 2, CommitTimeout: 50 * time.Millisecond})
	a := keysOnShard(db, 0, 1)[0]
	b := keysOnShard(db, 1, 1)[0]
	db.Load(a, []byte("1"))
	db.Load(b, []byte("2"))

	cl := newDBClient(t, db)
	// One transaction spanning both shards: reads from each, writes to each.
	err := cl.Run(context.Background(), func(txn *Txn) error {
		va, err := txn.Read(a)
		if err != nil {
			return err
		}
		vb, err := txn.Read(b)
		if err != nil {
			return err
		}
		txn.Write(a, append(va, vb...))
		txn.Write(b, append(vb, va...))
		return nil
	})
	if err != nil {
		t.Fatalf("cross-shard txn: %v", err)
	}
	got, err := cl.GetStrong(a)
	if err != nil || string(got) != "12" {
		t.Fatalf("%s = %q, %v; want \"12\"", a, got, err)
	}
	got, err = cl.GetStrong(b)
	if err != nil || string(got) != "21" {
		t.Fatalf("%s = %q, %v; want \"21\"", b, got, err)
	}
}

func TestShardSplitMigratesData(t *testing.T) {
	db := newTestDB(t, Config{Shards: 1, MaxShards: 2, CommitTimeout: 50 * time.Millisecond})
	cl := newDBClient(t, db)
	const n = 50
	for i := 0; i < n; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	dst, err := db.Admin().Split(0)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if dst != 1 {
		t.Fatalf("Split landed on group %d, want 1", dst)
	}
	m := db.Admin().ShardMap()
	if m.Version() != 2 {
		t.Fatalf("map version = %d, want 2", m.Version())
	}
	if got := m.Groups(); len(got) != 2 {
		t.Fatalf("owning groups = %v, want 2 groups", got)
	}

	// Every key still reads back — moved keys from the new owner, kept keys
	// from the old — through both a fresh client and the pre-split one.
	fresh := newDBClient(t, db)
	moved := 0
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if m.GroupForKey(k) == dst {
			moved++
		}
		for _, c := range []*Client{cl, fresh} {
			v, err := c.GetStrong(k)
			if err != nil || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("%s after split = %q, %v", k, v, err)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no key moved to the new shard; the split migrated nothing")
	}

	// Writes keep flowing, including to moved keys via the stale client.
	for i := 0; i < n; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte("post")); err != nil {
			t.Fatalf("put %d after split: %v", i, err)
		}
	}
	// A second split has no idle group left.
	if _, err := db.Admin().Split(0); !errors.Is(err, errNoIdleShard) {
		t.Fatalf("second split err = %v, want errNoIdleShard", err)
	}
}

// TestShardSplitStaleClientNeverCommitsOnOldOwner pins the routing-cache
// safety invariant: a client one map version behind — routing a moved key to
// its pre-split owner after the fence — is redirected, its commit aborts
// with ErrWrongShard/ErrStaleShardMap, and no effect lands on the old owner.
func TestShardSplitStaleClientNeverCommitsOnOldOwner(t *testing.T) {
	db := newTestDB(t, Config{Shards: 1, MaxShards: 2, CommitTimeout: 50 * time.Millisecond})
	stale := newDBClient(t, db) // caches map v1
	if _, err := db.Admin().Split(0); err != nil {
		t.Fatalf("Split: %v", err)
	}

	// A key now owned by group 1; the stale client still routes it to 0.
	key := keysOnShard(db, 1, 1)[0]

	// Blind write (no read: a read would refresh the cache first). The raw
	// commit must abort with the typed redirect, not commit on group 0.
	txn := stale.Begin()
	txn.Write(key, []byte("lost?"))
	ok, err := txn.Commit()
	if ok {
		t.Fatal("stale-routed commit reported success")
	}
	if !errors.Is(err, ErrWrongShard) || !errors.Is(err, ErrStaleShardMap) {
		t.Fatalf("stale-routed commit err = %v, want ErrWrongShard and ErrStaleShardMap", err)
	}
	// The old owner's replicas must not hold the key.
	for r := 0; r < db.cfg.Replicas; r++ {
		if rep := db.replicaAt(0, r); rep != nil {
			if _, exists := rep.Store().Read(key); exists {
				t.Fatalf("old owner replica %d holds %q written by a stale-routed commit", r, key)
			}
		}
	}

	// The redirect refreshed the cache, so the retry routes correctly — and
	// Client.Run does the whole dance transparently.
	if err := stale.Put(key, []byte("routed")); err != nil {
		t.Fatalf("put after refresh: %v", err)
	}
	if v, err := stale.GetStrong(key); err != nil || string(v) != "routed" {
		t.Fatalf("GetStrong after refresh = %q, %v", v, err)
	}
}

// TestSerializabilityCrossShard runs the randomized stress over a two-shard
// DB: multi-key transactions routinely span both replica groups, and the
// committed history must stay one-copy serializable in timestamp order.
func TestSerializabilityCrossShard(t *testing.T) {
	db := newTestDB(t, Config{Shards: 2, CommitTimeout: 50 * time.Millisecond})
	// Half the keyset on each shard, so random multi-key picks usually span
	// both (short formatted keys cluster in one hash half; pick explicitly).
	keyset := append(keysOnShard(db, 0, 4), keysOnShard(db, 1, 4)...)
	keys := len(keyset)
	initial := make(map[string]timestamp.Timestamp, keys)
	loadTS := timestamp.Timestamp{Time: 1, ClientID: 0}
	hist := checker.New()
	for _, k := range keyset {
		db.Load(k, []byte("0"))
		initial[k] = loadTS
		hist.SetInitialValue(k, []byte("0"))
	}

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		cl := newDBClient(t, db)
		wg.Add(1)
		go func(cl *Client, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < 40; j++ {
				txn := cl.Begin()
				nKeys := 2 + rng.Intn(2)
				ok := true
				seen := map[int]bool{}
				for k := 0; k < nKeys; k++ {
					ki := rng.Intn(keys)
					if seen[ki] {
						continue
					}
					seen[ki] = true
					key := keyset[ki]
					if _, err := txn.Read(key); err != nil {
						ok = false
						break
					}
					txn.Write(key, []byte(fmt.Sprintf("c%d-%d", seed, j)))
				}
				if !ok {
					continue
				}
				if committed, err := txn.Commit(); err == nil && committed {
					hist.Add(checker.CommittedTxn{
						ID: txn.inner.ID(), TS: txn.inner.Timestamp(),
						ReadSet: txn.inner.ReadSet(), WriteSet: txn.inner.WriteSet(),
					})
				}
			}
		}(cl, 600+int64(i))
	}
	wg.Wait()

	if hist.Len() == 0 {
		t.Fatal("nothing committed")
	}
	// The stress is only meaningful if committed transactions actually
	// spanned both shards.
	m := db.source.Current()
	cross := 0
	hist.Range(func(txn *checker.CommittedTxn) bool {
		groups := map[int]bool{}
		for _, w := range txn.WriteSet {
			groups[m.GroupForKey(w.Key)] = true
		}
		if len(groups) > 1 {
			cross++
		}
		return true
	})
	if cross == 0 {
		t.Fatal("no committed transaction spanned two shards")
	}
	if dups := hist.CheckUniqueTimestamps(); dups != nil {
		t.Fatalf("duplicate commit timestamps: %v", dups)
	}
	if violations := hist.Check(initial); violations != nil {
		for _, v := range violations {
			t.Error(v)
		}
	}
	t.Logf("committed %d transactions, %d cross-shard", hist.Len(), cross)
}

// TestChaosShardSplit splits a shard mid-workload under message loss while a
// source replica crashes and recovers around the split. Requirements: the
// committed history stays one-copy serializable, every acknowledged commit
// survives (the final strong read of each key is the max-timestamp
// acknowledged write), and clients ride the redirect transparently.
func TestChaosShardSplit(t *testing.T) {
	db := newTestDB(t, Config{
		Shards:        1,
		MaxShards:     2,
		Cores:         2,
		Faults:        lossy(13, 0.02),
		Seed:          13,
		CommitTimeout: 20 * time.Millisecond,
		Retries:       20,
		SweepInterval: 25 * time.Millisecond,
		StaleAfter:    50 * time.Millisecond,
	})
	// Half the keys in each hash half: the split moves half the keyset and
	// the post-split workload spans both shards.
	keyset := keysByHashHalf(8)
	keys := len(keyset)
	initial := make(map[string]timestamp.Timestamp, keys)
	loadTS := timestamp.Timestamp{Time: 1, ClientID: 0}
	hist := checker.New()
	for _, k := range keyset {
		db.Load(k, []byte("0"))
		initial[k] = loadTS
		hist.SetInitialValue(k, []byte("0"))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stop := make(chan struct{})
	var unresolved sync.Map // key -> true when an outcome-unknown txn touched it
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		cl := newDBClient(t, db)
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
				key := keyset[(seed+j)%keys]
				val := []byte(fmt.Sprintf("c%d-%d", seed, j))
				var last *Txn
				err := cl.Run(ctx, func(txn *Txn) error {
					last = txn
					if _, err := txn.Read(key); err != nil {
						return err
					}
					txn.Write(key, val)
					return nil
				})
				if err == nil {
					hist.Add(checker.CommittedTxn{
						ID: last.inner.ID(), TS: last.inner.Timestamp(),
						ReadSet: last.inner.ReadSet(), WriteSet: last.inner.WriteSet(),
					})
				} else {
					// Outcome unknown (ctx gave out mid-resolve): the final-
					// value check below cannot reason about this key.
					unresolved.Store(key, true)
				}
			}
		}(cl, i)
	}

	// Chaos sequence: crash a source replica, split under load with the
	// group at 2/3, recover the replica into its post-split ownership.
	time.Sleep(75 * time.Millisecond)
	db.Admin().CrashReplica(0, 2)
	time.Sleep(50 * time.Millisecond)
	var dst int
	var splitErr error
	for attempt := 0; attempt < 3; attempt++ {
		// Split is retryable by design; under loss the fence may time out.
		if dst, splitErr = db.Admin().Split(0); splitErr == nil {
			break
		}
	}
	if splitErr != nil {
		t.Fatalf("Split under chaos: %v", splitErr)
	}
	time.Sleep(50 * time.Millisecond)
	if err := db.Admin().RecoverReplica(0, 2); err != nil {
		t.Errorf("recover source replica post-split: %v", err)
	}
	time.Sleep(75 * time.Millisecond)
	close(stop)
	wg.Wait()

	if hist.Len() == 0 {
		t.Fatal("nothing committed across the split")
	}
	if dups := hist.CheckUniqueTimestamps(); dups != nil {
		t.Fatalf("duplicate commit timestamps: %v", dups)
	}
	if violations := hist.Check(initial); violations != nil {
		for _, v := range violations {
			t.Error(v)
		}
	}

	// Zero acknowledged-commit loss: for every key no unknown-outcome txn
	// touched, the surviving value is the max-timestamp acknowledged write.
	finalWant := make(map[string][]byte, keys)
	finalTS := make(map[string]timestamp.Timestamp, keys)
	hist.Range(func(txn *checker.CommittedTxn) bool {
		for _, w := range txn.WriteSet {
			if finalTS[w.Key].Less(txn.TS) {
				finalTS[w.Key] = txn.TS
				finalWant[w.Key] = w.Value
			}
		}
		return true
	})
	cl := newDBClient(t, db)
	checked := 0
	for _, k := range keyset {
		if _, tainted := unresolved.Load(k); tainted {
			continue
		}
		want, wrote := finalWant[k]
		if !wrote {
			continue
		}
		got, err := cl.GetStrong(k)
		if err != nil {
			t.Fatalf("GetStrong(%s) after chaos: %v", k, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s = %q after chaos, want last acknowledged write %q (acknowledged commit lost)", k, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("every key was touched by an unresolved transaction; the loss check verified nothing")
	}
	m := db.Admin().ShardMap()
	t.Logf("committed %d transactions across split to group %d (map v%d), %d/%d keys loss-checked",
		hist.Len(), dst, m.Version(), checked, keys)
}

// TestShardMapPersistsAcrossRestart: on a durable DB a completed split
// survives a full restart — the reopened cluster owns by the split map and
// the migrated data is on its new owner, read timestamps included: each
// transaction before the split read a key nobody ever wrote, and the new
// owner must still refuse a write below that read after the restart.
func TestShardMapPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	verifyCleanShutdown(t, dir)
	cfg := Config{
		Shards: 1, MaxShards: 2, Cores: 2,
		CommitTimeout: 50 * time.Millisecond,
		Durability:    Durability{DataDir: dir},
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := db.Client()
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	readKeys := keysByHashHalf(n) // half of them move
	for i := 0; i < n; i++ {
		err := cl.Run(context.Background(), func(txn *Txn) error {
			if _, err := txn.Read(readKeys[i]); err != nil {
				return err
			}
			txn.Write(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	dst, err := db.Admin().Split(0)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	// The rts each moved key had on the source group, which the fence froze.
	moved := map[string]timestamp.Timestamp{}
	for i := 0; i < n; i++ {
		for _, k := range []string{readKeys[i], fmt.Sprintf("k%d", i)} {
			if db.Admin().ShardMap().GroupForKey(k) != dst {
				continue
			}
			for r := 0; r < db.cfg.Replicas; r++ {
				_, rts := db.replicaAt(0, r).Store().Meta(k)
				moved[k] = timestamp.Max(moved[k], rts)
			}
		}
	}
	cl.Close()
	db.Close()

	db2 := newTestDB(t, cfg)
	if v := db2.Admin().ShardMap().Version(); v != 2 {
		t.Fatalf("reopened map version = %d, want 2", v)
	}
	for _, k := range readKeys {
		if want, ok := moved[k]; ok && want.IsZero() {
			t.Fatalf("source replicas hold no rts for %s, which a committed transaction read", k)
		}
	}
	for k, want := range moved {
		for r := 0; r < db2.cfg.Replicas; r++ {
			if _, rts := db2.replicaAt(dst, r).Store().Meta(k); rts != want {
				t.Errorf("replica %d of shard %d: %s rts %v after restart, want %v as the source had it", r, dst, k, rts, want)
			}
		}
	}
	cl2 := newDBClient(t, db2)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", i)
		v, err := cl2.GetStrong(k)
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s after restart = %q, %v", k, v, err)
		}
	}
}
