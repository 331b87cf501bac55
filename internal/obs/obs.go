// Package obs is Meerkat's observability subsystem: per-core (more
// precisely, per-recorder) sharded counters and latency histograms for the
// transaction lifecycle, plus scrape-time gauges, aggregated only when a
// snapshot is taken.
//
// The design obeys the Zero-Coordination Principle the rest of the system is
// built on: there is no shared hot-path counter anywhere. Every recorder — a
// replica core, a client coordinator, an epoch-change run — owns a private
// Shard and records into it with uncontended atomic adds on cache lines no
// other recorder writes. The Registry only walks the shards at scrape time
// (an HTTP scrape or a benchmark snapshot), paying the aggregation cost on
// the cold path where it belongs. A shared counter here would re-create
// exactly the cross-core cache-line ping-pong that Figure 1 of the paper
// demonstrates destroys multicore scaling.
//
// The record path (Inc/Add/Observe) is allocation-free and nil-safe: an
// un-instrumented component carries a nil *Shard and pays one predictable
// branch. TestRecordPathZeroAllocs pins the path at 0 allocs/op.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"meerkat/internal/stats"
)

// Counter identifies one lifecycle counter. The taxonomy follows the
// protocol's decision structure (§5.2): which coordination path a
// transaction took, and why it aborted if it did.
type Counter int

// Coordinator-side transaction lifecycle counters (one increment per
// transaction at Commit, plus per-resend retry counters).
const (
	// TxnCommitFast counts transactions committed on the fast path: a
	// supermajority of matching VALIDATED-OK replies in every partition,
	// one round trip, no accept round.
	TxnCommitFast Counter = iota
	// TxnCommitSlow counts transactions committed through the Paxos-like
	// slow path (an accept round) in at least one partition.
	TxnCommitSlow
	// TxnAbortValidation counts aborts decided by validation conflicts on
	// the fast path: a supermajority of VALIDATED-ABORT replies (or a final
	// ABORTED learned from another coordinator).
	TxnAbortValidation
	// TxnAbortAcceptAbort counts aborts decided through the slow path: an
	// ACCEPT-ABORT proposal accepted by a majority.
	TxnAbortAcceptAbort
	// TxnAbortTimeout counts commits whose outcome could not be determined
	// within the retry budget (ErrTimeout; a backup coordinator finishes
	// the transaction).
	TxnAbortTimeout
	// TxnRetry counts validate/accept round resends beyond the first
	// attempt.
	TxnRetry
	// ReadRetry counted the resends of the one-key read protocol. Reads of
	// one key are plain read rounds now and count under ReadMultiRetry; this
	// is never incremented, and stays declared only because the benchmark's
	// per-layer report still names it.
	ReadRetry
	// ReadMultiRound counts plain read round trips issued (one per touched
	// partition per Read or ReadMany call); ReadMultiRetry the resends beyond
	// each round's first attempt.
	ReadMultiRound
	ReadMultiRetry
	// TxnResolveCommit/TxnResolveAbort count unknown-outcome transactions
	// (Commit returned ErrTimeout) whose final outcome the client then
	// learned — or forced — by driving the cooperative-termination recovery
	// procedure itself (Txn.Resolve).
	TxnResolveCommit
	TxnResolveAbort
	// TxnCommitRO counts read-only transactions committed on the
	// validation-free fast path: every touched partition confirmed the
	// snapshot timestamp, so no validate round was issued at all.
	TxnCommitRO
	// ROReadRetry counts snapshot-read rounds re-issued at the same
	// snapshot timestamp because a partition was unconfirmed; RORoundDown
	// counts second attempts at a lower (rounded-down) snapshot;
	// ROFallback counts read-only transactions that gave up on the fast
	// path and demoted to the classic validated commit.
	ROReadRetry
	RORoundDown
	ROFallback

	// Replica-side per-core counters (one per message handled).
	ValidateOK       // validations that passed the OCC checks
	ValidateAbort    // validations that failed the OCC checks
	AcceptAcked      // accept requests adopted (slow path / recovery)
	AcceptRejected   // accept requests refused for a stale view
	CommitApplied    // write phases applied for committed transactions
	AbortApplied     // finalized aborts (registrations backed out)
	CoordChange      // coordinator-change promises granted (backup recovery)
	SweepRecovery    // stalled transactions handed to the backup coordinator
	EpochChangePause // cores paused and snapshotted by an epoch change
	MultiReadServed  // plain read requests answered, of one key or a batch
	OpCommitApplied  // committed transactions carrying commutative ops
	OpMerged         // commutative ops folded into version chains on commit
	SnapshotRead     // snapshot multi-read requests answered (RO fast path)

	// Recovery-coordinator counters (internal/recovery).
	EpochChangeRun   // epoch changes driven to completion
	EpochMergedTxn   // transaction records in installed merged trecords
	EpochRevalidated // rule-4 candidates re-validated during a merge

	// Shard-routing counters. WrongShardRedirect counts replica-side
	// requests refused with a redirect (the group no longer owns the key);
	// TxnWrongShard counts client-side transaction attempts that hit a
	// redirect; MapRefresh counts shard-map cache refreshes that advanced
	// the cached version.
	WrongShardRedirect
	TxnWrongShard
	MapRefresh

	// TxnCommitMultiShard counts committed transactions whose validation
	// phase ran in more than one partition (§5.2.4); they are also counted
	// by TxnCommitFast or TxnCommitSlow.
	TxnCommitMultiShard

	// NumCounters sizes shard arrays; keep it last.
	NumCounters
)

// counterNames are the export names (prefixed meerkat_ and suffixed _total
// by the Prometheus exporter).
var counterNames = [NumCounters]string{
	TxnCommitFast:       "txn_commit_fast",
	TxnCommitSlow:       "txn_commit_slow",
	TxnAbortValidation:  "txn_abort_validation",
	TxnAbortAcceptAbort: "txn_abort_accept_abort",
	TxnAbortTimeout:     "txn_abort_timeout",
	TxnRetry:            "txn_retry",
	ReadRetry:           "read_retry",
	ReadMultiRound:      "read_multi_round",
	ReadMultiRetry:      "read_multi_retry",
	TxnResolveCommit:    "txn_resolve_commit",
	TxnResolveAbort:     "txn_resolve_abort",
	TxnCommitRO:         "txn_commit_ro",
	ROReadRetry:         "ro_read_retry",
	RORoundDown:         "ro_round_down",
	ROFallback:          "ro_fallback",
	ValidateOK:          "replica_validate_ok",
	ValidateAbort:       "replica_validate_abort",
	AcceptAcked:         "replica_accept_acked",
	AcceptRejected:      "replica_accept_rejected",
	CommitApplied:       "replica_commit_applied",
	AbortApplied:        "replica_abort_applied",
	CoordChange:         "replica_coord_change",
	SweepRecovery:       "replica_sweep_recovery",
	EpochChangePause:    "replica_epoch_change_pause",
	MultiReadServed:     "replica_multi_read_served",
	OpCommitApplied:     "replica_op_commit_applied",
	OpMerged:            "replica_op_merged",
	SnapshotRead:        "replica_snapshot_read_served",
	EpochChangeRun:      "recovery_epoch_change_run",
	EpochMergedTxn:      "recovery_epoch_merged_txn",
	EpochRevalidated:    "recovery_epoch_revalidated",
	WrongShardRedirect:  "replica_wrong_shard_redirect",
	TxnWrongShard:       "txn_wrong_shard",
	MapRefresh:          "map_refresh",
	TxnCommitMultiShard: "txn_commit_multi_shard",
}

// Name returns the counter's export name.
func (c Counter) Name() string { return counterNames[c] }

// Hist identifies one latency histogram.
type Hist int

const (
	// HistCommit is end-to-end commit latency of committed transactions
	// (Begin-to-decision as measured at the coordinator's Commit call).
	HistCommit Hist = iota
	// HistAbort is the same for transactions that aborted.
	HistAbort
	// HistValidateRound is the validation phase of one commit attempt as
	// the coordinator sees it: from the first validate broadcast until
	// every touched partition is decided, slow path and recovery included,
	// whatever the outcome.
	HistValidateRound
	// HistReadRound is one execution-phase read round as the coordinator
	// sees it — a single-key read, a batched multi-read or a snapshot round
	// alike: from its first request going out until the round closes, resends
	// included, whatever the outcome.
	HistReadRound

	// NumHists sizes shard arrays; keep it last.
	NumHists
)

var histNames = [NumHists]string{
	HistCommit:        "commit_latency",
	HistAbort:         "abort_latency",
	HistValidateRound: "validate_round_latency",
	HistReadRound:     "read_round_latency",
}

// Name returns the histogram's export name.
func (h Hist) Name() string { return histNames[h] }

// cacheLine padding keeps one shard's hot counters from sharing a line with
// an allocator neighbor (shards are individually heap-allocated, so
// cross-shard false sharing can only happen at the object's edges).
const cacheLine = 64

// Shard is one recorder's private slice of the metrics space. Exactly one
// goroutine-at-a-time records into a shard in the intended wiring (a replica
// core's delivery goroutine, a client's coordinator), but the record path
// uses atomic adds so scrapes — and any sharing a caller does choose — are
// race-free. A nil *Shard is valid and discards records.
type Shard struct {
	_        [cacheLine]byte
	counters [NumCounters]uint64
	hists    [NumHists][stats.NumBuckets]uint64
	_        [cacheLine]byte
}

// Inc adds 1 to counter c. Allocation-free; nil-safe.
func (s *Shard) Inc(c Counter) {
	if s == nil {
		return
	}
	atomic.AddUint64(&s.counters[c], 1)
}

// Add adds n to counter c. Allocation-free; nil-safe.
func (s *Shard) Add(c Counter, n uint64) {
	if s == nil {
		return
	}
	atomic.AddUint64(&s.counters[c], n)
}

// Observe records one latency observation into histogram h, using the same
// log bucketing as stats.Histogram. Allocation-free; nil-safe.
func (s *Shard) Observe(h Hist, d time.Duration) {
	if s == nil {
		return
	}
	atomic.AddUint64(&s.hists[h][stats.BucketIndex(uint64(d))], 1)
}

// Gauge is a scrape-time sampled value: the function runs only when a
// snapshot is taken, so gauges add zero hot-path cost no matter what they
// read (a vstore key walk, a transport counter, a queue depth).
type Gauge struct {
	Name string
	Fn   func() uint64
}

// Registry holds the shards and gauges of one deployment (a cluster, a
// server process, a benchmark run). All methods are safe for concurrent use;
// registration is a cold path taken at component construction.
type Registry struct {
	mu     sync.Mutex
	shards []*Shard
	gauges []Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// NewShard allocates a shard and registers it for aggregation. Shards live
// for the registry's lifetime; components that churn (benchmark clients)
// leave their final values behind, which is exactly what cumulative counters
// want. Nil-safe: a nil registry returns a nil shard, so un-instrumented
// wiring needs no guards anywhere.
func (r *Registry) NewShard() *Shard {
	if r == nil {
		return nil
	}
	s := &Shard{}
	r.mu.Lock()
	r.shards = append(r.shards, s)
	r.mu.Unlock()
	return s
}

// RegisterGauge registers (or, by name, replaces) a scrape-time gauge.
// Replacement keeps re-created components (benchmark clusters sharing one
// registry across runs) from piling up duplicate export names. Nil-safe.
func (r *Registry) RegisterGauge(name string, fn func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.gauges {
		if r.gauges[i].Name == name {
			r.gauges[i].Fn = fn
			return
		}
	}
	r.gauges = append(r.gauges, Gauge{Name: name, Fn: fn})
}

// GaugeValue is one sampled gauge in a snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// HistSnapshot is the raw bucket counts of one histogram at snapshot time.
type HistSnapshot struct {
	Counts [stats.NumBuckets]uint64
}

// Histogram converts the raw buckets into a stats.Histogram (midpoint
// semantics) for percentile queries.
func (h *HistSnapshot) Histogram() stats.Histogram {
	var out stats.Histogram
	for b, n := range h.Counts {
		out.AddBucket(b, n)
	}
	return out
}

// Count returns the histogram's total observation count.
func (h *HistSnapshot) Count() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Snapshot is a consistent-enough point-in-time aggregate: counters and
// buckets are summed shard by shard with atomic loads, so each value is
// exact, though values recorded during the walk may land on either side.
type Snapshot struct {
	Counters [NumCounters]uint64
	Hists    [NumHists]HistSnapshot
	Gauges   []GaugeValue
}

// Snapshot aggregates all shards and samples all gauges. Cold path only.
// Nil-safe: a nil registry yields a zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	shards := r.shards
	gauges := make([]Gauge, len(r.gauges))
	copy(gauges, r.gauges)
	r.mu.Unlock()

	for _, s := range shards {
		for c := range s.counters {
			snap.Counters[c] += atomic.LoadUint64(&s.counters[c])
		}
		for h := range s.hists {
			for b := range s.hists[h] {
				snap.Hists[h].Counts[b] += atomic.LoadUint64(&s.hists[h][b])
			}
		}
	}
	snap.Gauges = make([]GaugeValue, len(gauges))
	for i, g := range gauges {
		snap.Gauges[i] = GaugeValue{Name: g.Name, Value: g.Fn()}
	}
	return snap
}

// Counter returns one aggregated counter value.
func (s Snapshot) Counter(c Counter) uint64 { return s.Counters[c] }

// Sub returns the counter/histogram delta s - prev (windowed measurements:
// a benchmark's measured interval). Gauges are point samples, not
// cumulative, so the receiver's values are kept as-is.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := s
	for c := range out.Counters {
		out.Counters[c] -= prev.Counters[c]
	}
	for h := range out.Hists {
		for b := range out.Hists[h].Counts {
			out.Hists[h].Counts[b] -= prev.Hists[h].Counts[b]
		}
	}
	return out
}

// JSONMap renders the snapshot as a flat, stable-keyed structure for expvar
// and file export: counters and gauges by name, histograms as count plus
// nanosecond percentiles.
func (s *Snapshot) JSONMap() map[string]any {
	counters := make(map[string]uint64, NumCounters)
	for c := Counter(0); c < NumCounters; c++ {
		counters[c.Name()] = s.Counters[c]
	}
	gauges := make(map[string]uint64, len(s.Gauges))
	for _, g := range s.Gauges {
		gauges[g.Name] = g.Value
	}
	hists := make(map[string]any, NumHists)
	for h := Hist(0); h < NumHists; h++ {
		hg := s.Hists[h].Histogram()
		hists[Hist(h).Name()] = map[string]any{
			"count":   hg.Count(),
			"mean_ns": uint64(hg.Mean()),
			"p50_ns":  uint64(hg.Percentile(0.50)),
			"p99_ns":  uint64(hg.Percentile(0.99)),
			"p999_ns": uint64(hg.Percentile(0.999)),
			"max_ns":  uint64(hg.Max()),
		}
	}
	return map[string]any{
		"counters":   counters,
		"gauges":     gauges,
		"histograms": hists,
	}
}
