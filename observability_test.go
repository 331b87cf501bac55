package meerkat_test

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"meerkat"
	"meerkat/internal/obs"
)

// obsCluster builds a small cluster for observability tests.
func obsCluster(t *testing.T, cfg meerkat.Config) *meerkat.DB {
	t.Helper()
	cluster, err := meerkat.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster
}

// txnCounterTotal sums every per-transaction outcome counter in a delta.
func txnCounterTotal(d obs.Snapshot) uint64 {
	return d.Counter(obs.TxnCommitFast) + d.Counter(obs.TxnCommitSlow) +
		d.Counter(obs.TxnAbortValidation) + d.Counter(obs.TxnAbortAcceptAbort) +
		d.Counter(obs.TxnAbortTimeout)
}

// TestAbortTaxonomyValidationConflict forces a fast-path validation conflict:
// a transaction reads a key, a second transaction overwrites it, and the
// first transaction's commit must then abort with a supermajority of
// VALIDATED-ABORT votes — counted exactly once as a validation abort.
func TestAbortTaxonomyValidationConflict(t *testing.T) {
	cluster := obsCluster(t, meerkat.Config{})
	cluster.Load("k", []byte("v0"))
	victim, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	winner, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer winner.Close()

	before := cluster.Admin().Obs().Snapshot()

	txn := victim.Begin()
	if _, err := txn.Read("k"); err != nil {
		t.Fatal(err)
	}
	if err := winner.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	txn.Write("k", []byte("v2"))
	committed, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("conflicting transaction committed")
	}

	d := cluster.Admin().Obs().Snapshot().Sub(before)
	if got := d.Counter(obs.TxnAbortValidation); got != 1 {
		t.Errorf("TxnAbortValidation = %d, want 1", got)
	}
	if got := d.Counter(obs.TxnAbortAcceptAbort); got != 0 {
		t.Errorf("TxnAbortAcceptAbort = %d, want 0", got)
	}
	if got := d.Counter(obs.TxnAbortTimeout); got != 0 {
		t.Errorf("TxnAbortTimeout = %d, want 0", got)
	}
	if got := d.Counter(obs.TxnCommitFast); got != 1 { // the winner's Put
		t.Errorf("TxnCommitFast = %d, want 1", got)
	}
	// Two Commit calls happened; each must be classified exactly once.
	if got := txnCounterTotal(d); got != 2 {
		t.Errorf("txn outcome counters sum to %d, want 2", got)
	}
	// The inproc transport is reliable, so replica-side validation votes are
	// exact: 3 OK for the winner, 3 ABORT for the victim.
	if got := d.Counter(obs.ValidateOK); got != 3 {
		t.Errorf("ValidateOK = %d, want 3", got)
	}
	if got := d.Counter(obs.ValidateAbort); got != 3 {
		t.Errorf("ValidateAbort = %d, want 3", got)
	}
}

// TestAbortTaxonomyAcceptAbort forces the same conflict through the slow
// path (DisableFastPath): the abort decision now comes from an ACCEPT-ABORT
// round and must be counted as an accept-abort, not a validation abort.
func TestAbortTaxonomyAcceptAbort(t *testing.T) {
	cluster := obsCluster(t, meerkat.Config{DisableFastPath: true})
	cluster.Load("k", []byte("v0"))
	victim, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	winner, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer winner.Close()

	before := cluster.Admin().Obs().Snapshot()

	txn := victim.Begin()
	if _, err := txn.Read("k"); err != nil {
		t.Fatal(err)
	}
	if err := winner.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	txn.Write("k", []byte("v2"))
	committed, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("conflicting transaction committed")
	}

	d := cluster.Admin().Obs().Snapshot().Sub(before)
	if got := d.Counter(obs.TxnAbortAcceptAbort); got != 1 {
		t.Errorf("TxnAbortAcceptAbort = %d, want 1", got)
	}
	if got := d.Counter(obs.TxnAbortValidation); got != 0 {
		t.Errorf("TxnAbortValidation = %d, want 0", got)
	}
	if got := d.Counter(obs.TxnCommitSlow); got != 1 { // the winner's Put
		t.Errorf("TxnCommitSlow = %d, want 1", got)
	}
	if got := d.Counter(obs.TxnCommitFast); got != 0 {
		t.Errorf("TxnCommitFast = %d, want 0 with the fast path disabled", got)
	}
	if got := txnCounterTotal(d); got != 2 {
		t.Errorf("txn outcome counters sum to %d, want 2", got)
	}
	// Both transactions went through an accept round on every replica. The
	// coordinator proceeds after a majority of acks, so the last replica's
	// ack lands asynchronously — poll briefly for the full count.
	deadline := time.Now().Add(time.Second)
	for {
		got := cluster.Admin().Obs().Snapshot().Sub(before).Counter(obs.AcceptAcked)
		if got == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("AcceptAcked = %d, want 6", got)
			break
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAbortTaxonomyTimeout crashes a majority so the commit outcome cannot
// be determined; the failure must be counted as a timeout, exactly once,
// and not as any other abort kind.
func TestAbortTaxonomyTimeout(t *testing.T) {
	cluster := obsCluster(t, meerkat.Config{
		CommitTimeout: 20 * time.Millisecond,
		Retries:       1,
	})
	cluster.Load("k", []byte("v0"))
	cl, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cluster.Admin().CrashReplica(0, 1)
	cluster.Admin().CrashReplica(0, 2)

	before := cluster.Admin().Obs().Snapshot()

	txn := cl.Begin()
	txn.Write("k", []byte("v1"))
	if _, err := txn.Commit(); err == nil {
		t.Fatal("commit with a crashed majority returned no error")
	}

	d := cluster.Admin().Obs().Snapshot().Sub(before)
	if got := d.Counter(obs.TxnAbortTimeout); got != 1 {
		t.Errorf("TxnAbortTimeout = %d, want 1", got)
	}
	if got := d.Counter(obs.TxnAbortValidation) + d.Counter(obs.TxnAbortAcceptAbort); got != 0 {
		t.Errorf("non-timeout abort counters = %d, want 0", got)
	}
	if got := txnCounterTotal(d); got != 1 {
		t.Errorf("txn outcome counters sum to %d, want 1", got)
	}
}

// scrapeMetric extracts one sample value from Prometheus exposition text.
func scrapeMetric(t *testing.T, body, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 10, 64)
		if err != nil {
			t.Fatalf("parsing %s: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in scrape:\n%s", name, body)
	return 0
}

// TestMetricsHTTPMatchesClient runs live traffic against a cluster while its
// registry is served over HTTP, then checks that the scraped counters agree
// with what the clients themselves observed.
func TestMetricsHTTPMatchesClient(t *testing.T) {
	cluster := obsCluster(t, meerkat.Config{})
	for i := 0; i < 16; i++ {
		cluster.Load(fmt.Sprintf("key%d", i), []byte("v"))
	}

	srv, addr, err := obs.Serve("127.0.0.1:0", cluster.Admin().Obs())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 16; i++ {
		if err := cl.Put(fmt.Sprintf("key%d", i), []byte("w")); err != nil {
			t.Fatal(err)
		}
	}
	// One deliberate conflict so the abort counters carry signal too.
	conflicted := cl.Begin()
	if _, err := conflicted.Read("key0"); err != nil {
		t.Fatal(err)
	}
	other, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Put("key0", []byte("x")); err != nil {
		t.Fatal(err)
	}
	conflicted.Write("key0", []byte("y"))
	if committed, err := conflicted.Commit(); err != nil || committed {
		t.Fatalf("conflict txn: committed=%v err=%v", committed, err)
	}

	var wantCommitted, wantAborted uint64
	for _, c := range []*meerkat.Client{cl, other} {
		committed, aborted := c.Stats()
		wantCommitted += committed
		wantAborted += aborted
	}

	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	gotCommitted := scrapeMetric(t, body, "meerkat_txn_commit_fast_total") +
		scrapeMetric(t, body, "meerkat_txn_commit_slow_total")
	gotAborted := scrapeMetric(t, body, "meerkat_txn_abort_validation_total") +
		scrapeMetric(t, body, "meerkat_txn_abort_accept_abort_total")
	if gotCommitted != wantCommitted {
		t.Errorf("scraped commits = %d, client stats say %d", gotCommitted, wantCommitted)
	}
	if gotAborted != wantAborted {
		t.Errorf("scraped aborts = %d, client stats say %d", gotAborted, wantAborted)
	}
	if keys := scrapeMetric(t, body, "meerkat_vstore_keys"); keys < 3*16 {
		t.Errorf("meerkat_vstore_keys = %d, want >= %d (16 keys x 3 replicas)", keys, 3*16)
	}
	if count := scrapeMetric(t, body, "meerkat_commit_latency_seconds_count"); count != wantCommitted {
		t.Errorf("commit latency count = %d, want %d", count, wantCommitted)
	}
}

// TestValidateRoundObserved: every commit that runs a validate round records
// its length once, and one that spans partitions is counted as such (the
// export of both names is internal/obs's TestPrometheusEndpoint).
func TestValidateRoundObserved(t *testing.T) {
	db := obsCluster(t, meerkat.Config{Shards: 4})
	// Two keys per group: the one-group commit's outcome reaches the replicas
	// asynchronously, so the cross-shard commit that follows reads other keys
	// — a plain read of the just-written one may lag and abort the commit.
	keys := crossShardKeys(t, db, 3, 2)
	cl, err := db.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	before := db.Admin().Obs().Snapshot()
	commitRMW(t, cl, keys[3:])        // one group
	commitCrossShard(t, cl, keys[:3]) // three groups
	commitReadOnly(t, cl, keys[3:])   // no round at all
	d := db.Admin().Obs().Snapshot().Sub(before)
	if got := d.Counter(obs.TxnCommitMultiShard); got != 1 {
		t.Errorf("txn_commit_multi_shard = %d, want 1", got)
	}
	if got := d.Hists[obs.HistValidateRound].Count(); got != 2 {
		t.Errorf("validate rounds observed = %d, want 2", got)
	}
	if got := d.Hists[obs.HistCommit].Count(); got != 3 {
		t.Errorf("commits observed = %d, want 3", got)
	}
	// Every one of the three read its keys in one round first, whatever the
	// kind: a read of one key, a batched multi-read, a snapshot round.
	if got := d.Hists[obs.HistReadRound].Count(); got != 3 {
		t.Errorf("read rounds observed = %d, want 3", got)
	}
}
