package bench

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"meerkat/internal/obs"
	"meerkat/internal/stats"
	"meerkat/internal/workload"
)

// RunConfig describes one benchmark run: a system, a workload, and the
// closed-loop client population.
type RunConfig struct {
	System System

	// NewGenerator builds one workload generator per client goroutine.
	NewGenerator func() workload.Generator

	// Clients is the closed-loop client count. Defaults to 8.
	Clients int
	// Keys is the number of pre-loaded keys. Defaults to 65536.
	Keys int
	// ValueSize is the value payload size. Defaults to 64 (the paper's).
	ValueSize int

	// Warmup runs before measurement starts; Measure is the measured
	// window. Defaults: 100ms / 500ms (the paper warms up for 5 minutes
	// on real hardware; in-process runs stabilize in milliseconds).
	Warmup  time.Duration
	Measure time.Duration

	// Seed makes client randomness reproducible.
	Seed int64

	// SkipLoad skips pre-loading (the caller already loaded the store).
	SkipLoad bool
}

// PathStats is the coordination-path breakdown of the measured window,
// derived from the system's observability counters (Meerkat/TAPIR systems;
// zero for the PB baselines, which take neither path).
type PathStats struct {
	FastCommits      uint64 // fast path: supermajority agreement, 1 RTT
	SlowCommits      uint64 // slow path: at least one accept round
	ValidationAborts uint64 // fast-path validation conflicts
	AcceptAborts     uint64 // slow-path ACCEPT-ABORT decisions
	TimeoutAborts    uint64 // outcome unknown within the retry budget
	Retries          uint64 // validate/accept round resends
	ROCommits        uint64 // read-only fast path: snapshot reads, local commit
	ROFallbacks      uint64 // marked-RO transactions demoted to validation
}

// FastFraction is the share of commits that took the fast path.
func (p PathStats) FastFraction() float64 {
	total := p.FastCommits + p.SlowCommits
	if total == 0 {
		return 0
	}
	return float64(p.FastCommits) / float64(total)
}

// pathStats extracts the breakdown from an obs counter delta.
func pathStats(d obs.Snapshot) PathStats {
	return PathStats{
		FastCommits:      d.Counter(obs.TxnCommitFast),
		SlowCommits:      d.Counter(obs.TxnCommitSlow),
		ValidationAborts: d.Counter(obs.TxnAbortValidation),
		AcceptAborts:     d.Counter(obs.TxnAbortAcceptAbort),
		TimeoutAborts:    d.Counter(obs.TxnAbortTimeout),
		Retries:          d.Counter(obs.TxnRetry),
		ROCommits:        d.Counter(obs.TxnCommitRO),
		ROFallbacks:      d.Counter(obs.ROFallback),
	}
}

// Result is one benchmark measurement.
type Result struct {
	System   string
	Clients  int
	Counters stats.Counters
	Latency  stats.Histogram
	Elapsed  time.Duration
	// Path is the coordination-path breakdown over the measured window
	// (snapshot delta of the system's obs registry).
	Path PathStats
}

// Goodput returns committed transactions per second — the paper's
// throughput metric ("more precisely, goodput", §6.2).
func (r *Result) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Counters.Committed) / r.Elapsed.Seconds()
}

// AbortRate returns the abort fraction at this load (Figure 7's metric).
func (r *Result) AbortRate() float64 { return r.Counters.AbortRate() }

// Point is the run as one row of an experiment: goodput, abort rate, the
// latency percentiles and the path breakdown, labelled system at sweep
// position x.
func (r *Result) Point(system string, x float64) Point {
	return Point{
		System:    system,
		X:         x,
		Goodput:   r.Goodput(),
		AbortRate: r.AbortRate(),
		P50:       r.Latency.Percentile(0.50),
		P99:       r.Latency.Percentile(0.99),
		P999:      r.Latency.Percentile(0.999),
		Path:      r.Path,
	}
}

// phase values for the run state machine.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseDone
)

// Run loads the store, spawns the closed-loop clients, and measures.
func Run(cfg RunConfig) (Result, error) {
	if cfg.Clients == 0 {
		cfg.Clients = 8
	}
	if cfg.Keys == 0 {
		cfg.Keys = 65536
	}
	if cfg.ValueSize == 0 {
		cfg.ValueSize = 64
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 100 * time.Millisecond
	}
	if cfg.Measure == 0 {
		cfg.Measure = 500 * time.Millisecond
	}

	if !cfg.SkipLoad {
		val := workload.Value(cfg.ValueSize)
		for i := 0; i < cfg.Keys; i++ {
			cfg.System.Load(workload.KeyName(i), val)
		}
	}

	var phase atomic.Int32
	type clientStats struct {
		counters stats.Counters
		hist     stats.Histogram
	}
	perClient := make([]clientStats, cfg.Clients)
	clients := make([]Client, cfg.Clients)
	for i := range clients {
		cl, err := cfg.System.NewClient()
		if err != nil {
			return Result{}, err
		}
		clients[i] = cl
	}

	value := workload.Value(cfg.ValueSize)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := clients[i]
			defer cl.Close()
			gen := cfg.NewGenerator()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
			cs := &perClient[i]
			ctx := context.Background()
			var gets []string
			for {
				ph := phase.Load()
				if ph == phaseDone {
					return
				}
				spec := gen.Next(rng)
				start := time.Now()
				attempts, err := cl.Run(ctx, func(txn Txn) error {
					return execSpec(txn, &spec, value, &gets)
				})
				if ph != phaseMeasure {
					continue
				}
				if err != nil {
					cs.counters.Errors++
					continue
				}
				// One commit after attempts-1 conflict aborts; latency is
				// the whole loop, retries included — what a caller of the
				// canonical Run API observes.
				cs.counters.Committed++
				cs.counters.Aborted += uint64(attempts - 1)
				cs.counters.Ops += uint64(spec.NumOps())
				cs.hist.Record(time.Since(start))
			}
		}(i)
	}

	time.Sleep(cfg.Warmup)
	phase.Store(phaseMeasure)
	before := cfg.System.Obs().Snapshot()
	start := time.Now()
	time.Sleep(cfg.Measure)
	phase.Store(phaseDone)
	elapsed := time.Since(start)
	wg.Wait()
	// Snapshot after the clients drain so transactions straddling the
	// window's end are counted on exactly one side.
	delta := cfg.System.Obs().Snapshot().Sub(before)

	res := Result{System: cfg.System.Name(), Clients: cfg.Clients, Elapsed: elapsed,
		Path: pathStats(delta)}
	for i := range perClient {
		res.Counters.Merge(perClient[i].counters)
		res.Latency.Merge(&perClient[i].hist)
	}
	return res, nil
}

// execSpec builds one generated transaction inside txn: the whole read set
// (plain reads plus the read halves of the read-modify-writes) goes out as
// one batched ReadMany, then the writes are buffered. The commit belongs to
// the caller — Client.Run for the measured loop, runSpec for one-shot use.
// gets is a per-caller scratch reused across transactions for assembling the
// read set; it never reaches the transport (ReadMany copies what it sends).
func execSpec(txn Txn, spec *workload.TxnSpec, value []byte, gets *[]string) error {
	if len(spec.RMWs)+len(spec.Writes)+len(spec.Incrs) == 0 {
		// A pure-read spec rides the read-only fast path on systems that
		// have one. The mark is advisory and the capability an assertion —
		// the PB baselines simply validate as usual.
		if ro, ok := txn.(interface{ ReadOnly() }); ok {
			ro.ReadOnly()
		}
	}
	if len(spec.Reads)+len(spec.RMWs) > 0 {
		g := spec.Reads
		if len(spec.RMWs) > 0 {
			g = spec.AppendGets((*gets)[:0])
			*gets = g
		}
		if _, err := txn.ReadMany(g); err != nil {
			return err
		}
	}
	for _, k := range spec.RMWs {
		txn.Write(k, value)
	}
	for _, k := range spec.Writes {
		txn.Write(k, value)
	}
	if len(spec.Incrs) > 0 {
		// Server-side increments are a Meerkat-side extension; the Txn
		// interface stays the four-method baseline surface all four
		// systems share, so the op capability is an assertion.
		a, ok := txn.(interface{ Add(key string, delta int64) })
		if !ok {
			return errOpsUnsupported
		}
		for _, k := range spec.Incrs {
			a.Add(k, 1)
		}
	}
	return nil
}

// errOpsUnsupported rejects increment specs on systems whose transaction
// surface has no commutative ops (the PB baselines).
var errOpsUnsupported = errors.New("bench: system does not support server-side ops")

// runSpec executes one generated transaction as a single attempt: build via
// execSpec, then commit.
func runSpec(cl Client, spec *workload.TxnSpec, value []byte, gets *[]string) (bool, error) {
	txn := cl.Begin()
	if err := execSpec(txn, spec, value, gets); err != nil {
		return false, err
	}
	return txn.Commit()
}
