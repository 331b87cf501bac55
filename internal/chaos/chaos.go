// Package chaos runs the paper's workloads through the deterministic
// fault-injection layer (internal/faultnet) and verifies that the system's
// behaviour under faults matches its claims: every surviving history is
// one-copy serializable (internal/checker), no transaction outcome is left
// unknown (timed-out commits are resolved through the recovery procedure),
// and the commit mix shifts from the fast path to the slow path while a
// replica is unreachable (internal/obs).
//
// The harness is the bridge between the injector's transport-level faults
// and the cluster's replica lifecycle: it consumes the injector's fired
// events and mirrors crash/restart black-holes onto real CrashReplica /
// RecoverReplica calls, so an injected crash exercises state transfer and
// epoch change, not just message loss.
//
// Determinism: the fault schedule is pure data — Run with a fixed seed
// produces a byte-for-byte identical serialized plan (Result.Plan) and, for
// the schedules shipped here, the same checker verdict on every run. The
// interleaving of client transactions remains scheduler-dependent; the
// faults they run under do not.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"meerkat"
	"meerkat/internal/checker"
	"meerkat/internal/faultnet"
	"meerkat/internal/obs"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/workload"
)

// Config parameterizes one chaos run. The zero value (plus a seed) is a
// usable smoke configuration.
type Config struct {
	// Seed drives everything random: the fault plan, the per-client
	// workload generators, and the injector's per-link decision streams.
	Seed int64
	// Workload is "ycsb-t" (default) or "retwis".
	Workload string
	// Clients is the number of closed-loop client goroutines. Default 4.
	Clients int
	// Keys is the preloaded keyspace size. Default 256.
	Keys int
	// Theta is the Zipf coefficient of key popularity. Default 0 (uniform).
	Theta float64
	// TailTxns is how many transactions the clients commit after the last
	// scheduled fault event has fired, so recovery is exercised by real
	// traffic before the run ends. Default 50.
	TailTxns int
	// Timeout bounds the whole run. Default 2 minutes.
	Timeout time.Duration
	// Plan overrides the fault schedule; nil uses DefaultPlan(Seed).
	Plan *faultnet.Plan
	// Cores per replica. Default 2 (keeps -race runs cheap).
	Cores int
	// CommitTimeout is the cluster's per-round-trip wait. Default 25ms —
	// short, so a dropped message costs a quick resend, not a long stall.
	CommitTimeout time.Duration
	// Durability passes through to the cluster: with a DataDir set, injected
	// crashes abandon unflushed buffers and restarts recover from disk
	// before the delta state transfer, so the checker verdict covers the
	// whole persistence path.
	Durability meerkat.Durability
	// Ops replaces the workload's read-modify-write keys with server-side
	// increments: the transaction ships Add(key, 1) instead of reading the
	// key and writing it back. The recorded histories then mix plain
	// reads/writes with commutative ops, and the checker's value replay
	// verifies merge results across faults, crashes, and WAL recovery.
	Ops bool
	// ReadOnlyMix is the fraction of transactions run as read-only snapshot
	// transactions (Txn.ReadOnly) over the generated spec's keys. Under
	// faults the snapshot fast path demotes freely to the validated path;
	// either way the committed reads join the history, and the checker
	// verifies they saw a consistent cut.
	ReadOnlyMix float64
	// UDPBasePort, when non-zero, opens the deployment over loopback UDP
	// sockets from that port up instead of in process: every message is
	// encoded and decoded, so the run also drives the epoch-change install, the
	// state import and a backup coordinator's re-proposal across a real decode,
	// with released bytes poisoned under -race. A record that keeps decoded
	// bytes without copying them loses committed writes and fails the checker;
	// a replica that merely holds a garbage value is routed around by
	// validation, so the cold paths have a deterministic test of their own
	// (TestColdKeepersOverUDP in the root package).
	UDPBasePort int
}

func (c *Config) fill() {
	if c.Workload == "" {
		c.Workload = "ycsb-t"
	}
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.Keys == 0 {
		c.Keys = 256
	}
	if c.TailTxns == 0 {
		c.TailTxns = 50
	}
	if c.Timeout == 0 {
		c.Timeout = 2 * time.Minute
	}
	if c.Cores == 0 {
		c.Cores = 2
	}
	if c.CommitTimeout == 0 {
		c.CommitTimeout = 25 * time.Millisecond
	}
	if c.Plan == nil {
		c.Plan = DefaultPlan(c.Seed)
	}
}

// DefaultPlan is the canonical smoke schedule over a 3-replica group
// (nodes 0, 1, 2): a light uniform drop rule from the start, a partition
// window isolating replica 1, and — after the network heals — a crash and
// later restart of replica 2. Event triggers are global send counts; the
// harness keeps traffic flowing until every event has fired, so the whole
// schedule always executes.
func DefaultPlan(seed int64) *faultnet.Plan {
	t := topo.Topology{Partitions: 1, Replicas: 3, Cores: 1}
	iso := t.ReplicaNode(0, 1)
	victim := t.ReplicaNode(0, 2)
	return &faultnet.Plan{
		Seed:  seed,
		Rules: []faultnet.Rule{faultnet.EveryLink(faultnet.Rule{ID: "ambient-loss", DropProb: 0.02})},
		Events: []faultnet.Event{
			{At: 500, Op: faultnet.OpPartition, Groups: [][]uint32{{iso}}},
			{At: 1500, Op: faultnet.OpHeal},
			{At: 2500, Op: faultnet.OpCrash, Node: victim},
			{At: 7000, Op: faultnet.OpRestart, Node: victim},
		},
	}
}

// Result is one chaos run's outcome.
type Result struct {
	// Plan is the serialized fault schedule that ran — the byte-for-byte
	// reproducible artifact. Persist it to replay the run.
	Plan []byte

	// Committed is the number of transactions in the verified history;
	// Resolved of those had an unknown outcome that the client settled
	// through the recovery procedure (commit or abort); Unresolved counts
	// transactions whose outcome is STILL unknown after resolution was
	// attempted — any nonzero value voids the checker verdict, because the
	// history may be missing committed writes.
	Committed  int
	Resolved   uint64
	Unresolved int
	// RunErrors counts Client.Run calls that failed outright.
	RunErrors int

	// Crashes and Restarts count replica lifecycle transitions the harness
	// performed on behalf of the schedule.
	Crashes  int
	Restarts int

	// FastCommits and SlowCommits are the cluster-wide commit-path counts;
	// under a crash window the slow path must appear. ROCommits counts
	// read-only fast-path commits (zero validation rounds); ROFallbacks
	// counts snapshot attempts that demoted to the validated path.
	FastCommits uint64
	SlowCommits uint64
	ROCommits   uint64
	ROFallbacks uint64

	// Violations and DupTimestamps are the checker verdict: the history is
	// one-copy serializable iff both are empty.
	Violations    []checker.Violation
	DupTimestamps int

	// Faults summarizes the injector's activity.
	Faults faultnet.PlanStats
}

// Ok reports the overall verdict: a fully resolved, serializable history.
func (r *Result) Ok() bool {
	return r.Unresolved == 0 && len(r.Violations) == 0 && r.DupTimestamps == 0
}

// Run executes one chaos run: boot a faulted cluster, preload the keyspace,
// drive the workload from cfg.Clients closed-loop clients while mirroring
// crash/restart events onto the replica lifecycle, keep going until the
// whole fault schedule has fired plus cfg.TailTxns commits of recovered
// traffic, then check the history.
func Run(cfg Config) (*Result, error) {
	cfg.fill()
	planBytes, err := cfg.Plan.Dump()
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: planBytes}

	mcfg := meerkat.Config{
		Cores:         cfg.Cores,
		Seed:          cfg.Seed,
		Faults:        cfg.Plan,
		CommitTimeout: cfg.CommitTimeout,
		Durability:    cfg.Durability,
	}
	if cfg.UDPBasePort != 0 {
		mcfg.Transport, mcfg.UDPBasePort = meerkat.TransportUDP, cfg.UDPBasePort
	}
	db, err := meerkat.Open(mcfg)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	adm := db.Admin()

	// Preload every key so the checker's initial state is exact.
	initial := make(map[string]timestamp.Timestamp, cfg.Keys)
	loadTS := timestamp.Timestamp{Time: 1, ClientID: 0}
	value := workload.Value(64)
	for i := 0; i < cfg.Keys; i++ {
		k := workload.KeyName(i)
		db.Load(k, value)
		initial[k] = loadTS
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	// The lifecycle controller mirrors fired crash/restart events onto the
	// real replicas, counting each one it applied.
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		adm.FaultNetwork().Mirror(ctx, adm, func(ev faultnet.Event) {
			if ev.Op == faultnet.OpCrash {
				res.Crashes++
			} else {
				res.Restarts++
			}
		})
	}()

	// Clients run until the schedule has fully fired and TailTxns more
	// transactions have committed on the recovered cluster (or ctx
	// expires). Event triggers are send counts, so continuing to generate
	// traffic is what guarantees every event eventually fires.
	nEvents := uint64(len(cfg.Plan.Events))
	fnet := adm.FaultNetwork()
	allFired := func() bool { return fnet.Stats().EventsFired.Load() >= nEvents }

	hist := checker.New()
	// Give the checker the preloaded values so its value replay can verify
	// read hashes (and op merge results) from the first transaction.
	for i := 0; i < cfg.Keys; i++ {
		hist.SetInitialValue(workload.KeyName(i), value)
	}
	var tail atomic.Int64
	var stop atomic.Bool
	var unresolved, runErrors atomic.Int64

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := db.Client()
			if err != nil {
				runErrors.Add(1)
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
			gen := newGenerator(cfg, rng)
			var gets, incrs []string
			for !stop.Load() && ctx.Err() == nil {
				spec := gen.Next(rng)
				gets = spec.AppendGets(gets[:0])
				incrs = incrs[:0]
				ro := cfg.ReadOnlyMix > 0 && rng.Float64() < cfg.ReadOnlyMix
				if cfg.Ops && !ro {
					// RMW keys ship as server-side increments: drop their
					// reads (AppendGets puts plain reads first) and carry
					// the keys in the op set instead.
					gets = gets[:len(spec.Reads)]
					incrs = append(incrs, spec.RMWs...)
				}
				var last *meerkat.Txn
				err := cl.Run(ctx, func(t *meerkat.Txn) error {
					last = t
					if ro {
						// A read-only snapshot transaction over the spec's
						// whole key set (RMW keys read, not written).
						t.ReadOnly()
						if len(gets) == 0 {
							return nil
						}
						_, err := t.ReadMany(gets)
						return err
					}
					if len(gets) > 0 {
						if _, err := t.ReadMany(gets); err != nil {
							return err
						}
					}
					for _, k := range incrs {
						t.Add(k, 1)
					}
					if !cfg.Ops {
						for _, k := range spec.RMWs {
							t.Write(k, value)
						}
					}
					for _, k := range spec.Writes {
						t.Write(k, value)
					}
					return nil
				})
				if err != nil {
					runErrors.Add(1)
					if errors.Is(err, meerkat.ErrTimeout) && last != nil {
						// Run could not settle the outcome; the history
						// may be missing a committed transaction.
						unresolved.Add(1)
					}
					continue
				}
				hist.Add(checker.CommittedTxn{
					ID: last.ID(), TS: last.Timestamp(),
					ReadSet: last.ReadSet(), WriteSet: last.WriteSet(),
					OpSet:    last.OpSet(),
					ReadOnly: last.CommittedReadOnly(),
				})
				if allFired() && tail.Add(1) >= int64(cfg.TailTxns) {
					stop.Store(true)
				}
			}
		}(c)
	}
	wg.Wait()
	cancel()
	<-ctlDone

	if ctx.Err() != nil && !allFired() {
		return nil, fmt.Errorf("chaos: deadline before schedule completed (%d/%d events fired)",
			fnet.Stats().EventsFired.Load(), nEvents)
	}

	snap := adm.Obs().Snapshot()
	res.Committed = hist.Len()
	res.Resolved = snap.Counters[obs.TxnResolveCommit] + snap.Counters[obs.TxnResolveAbort]
	res.Unresolved = int(unresolved.Load())
	res.RunErrors = int(runErrors.Load())
	res.FastCommits = snap.Counters[obs.TxnCommitFast]
	res.SlowCommits = snap.Counters[obs.TxnCommitSlow]
	res.ROCommits = snap.Counters[obs.TxnCommitRO]
	res.ROFallbacks = snap.Counters[obs.ROFallback]
	res.Faults = fnet.Stats().Summary()
	res.Violations = hist.Check(initial)
	res.DupTimestamps = len(hist.CheckUniqueTimestamps())
	return res, nil
}

// newGenerator builds the workload generator for cfg.
func newGenerator(cfg Config, rng *rand.Rand) workload.Generator {
	chooser := workload.NewChooser(cfg.Keys, cfg.Theta)
	if cfg.Workload == "retwis" {
		return workload.NewRetwis(chooser)
	}
	return workload.NewYCSBT(chooser)
}
