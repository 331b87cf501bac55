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

// valueSize is the value payload size (the paper's).
const valueSize = 64

// preload stores keys values of valueSize bytes through load, under the key
// names every generator draws from.
func preload(load func(key string, value []byte), keys int) {
	val := workload.Value(valueSize)
	for i := 0; i < keys; i++ {
		load(workload.KeyName(i), val)
	}
}

// PathStats is the coordination-path breakdown of the measured window,
// derived from the system's observability counters (Meerkat/TAPIR systems;
// zero for the PB baselines, which take neither path).
type PathStats struct {
	FastCommits      uint64 `json:"fast_commits"`      // fast path: supermajority agreement, 1 RTT
	SlowCommits      uint64 `json:"slow_commits"`      // slow path: at least one accept round
	ValidationAborts uint64 `json:"validation_aborts"` // fast-path validation conflicts
	AcceptAborts     uint64 `json:"accept_aborts"`     // slow-path ACCEPT-ABORT decisions
	TimeoutAborts    uint64 `json:"timeout_aborts"`    // outcome unknown within the retry budget
	Retries          uint64 `json:"retries"`           // validate/accept round resends
	ROCommits        uint64 `json:"-"`                 // read-only fast path: snapshot reads, local commit
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
	}
}

// Result is one benchmark measurement.
type Result struct {
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

// Run drives the (already loaded) system with clients closed-loop client
// goroutines, each on its own generator from newGenerator, for opts.Warmup
// and then the measured opts.Measure (the paper warms up for 5 minutes on
// real hardware; in-process runs stabilize in milliseconds).
func Run(sys System, newGenerator func() workload.Generator, clients int, opts Options) (Result, error) {
	var phase atomic.Int32
	type clientStats struct {
		counters stats.Counters
		hist     stats.Histogram
	}
	perClient := make([]clientStats, clients)
	cls := make([]Client, clients)
	for i := range cls {
		cl, err := sys.NewClient()
		if err != nil {
			return Result{}, err
		}
		cls[i] = cl
	}

	value := workload.Value(valueSize)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := cls[i]
			defer cl.Close()
			gen := newGenerator()
			rng := rand.New(rand.NewSource(seed + int64(i)*7919))
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

	time.Sleep(opts.Warmup)
	phase.Store(phaseMeasure)
	before := sys.Obs().Snapshot()
	start := time.Now()
	time.Sleep(opts.Measure)
	phase.Store(phaseDone)
	elapsed := time.Since(start)
	wg.Wait()
	// Snapshot after the clients drain so transactions straddling the
	// window's end are counted on exactly one side.
	delta := sys.Obs().Snapshot().Sub(before)

	res := Result{Elapsed: elapsed, Path: pathStats(delta)}
	for i := range perClient {
		res.Counters.Merge(perClient[i].counters)
		res.Latency.Merge(&perClient[i].hist)
	}
	return res, nil
}

// execSpec builds one generated transaction inside txn: the whole read set
// (plain reads plus the read halves of the read-modify-writes) goes out as
// one batched ReadMany, then the writes are buffered. The commit belongs to
// the caller, normally Client.Run.
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
