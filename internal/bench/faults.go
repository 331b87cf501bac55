package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"meerkat"
	"meerkat/internal/faultnet"
	"meerkat/internal/workload"
)

// This file is the kill-one-replica experiment: a Meerkat cluster runs the
// YCSB-T workload while the fault injector crashes one replica and later
// restarts it. The timeline shows the zero-coordination failure story: with a
// replica down the supermajority fast quorum is unreachable, so goodput dips
// onto the slow path (which keeps committing on a simple majority); after the
// restart — state transfer plus epoch change — the fast path, and goodput,
// recover.
//
// The schedule is pure data (a faultnet.Plan keyed on global send counts), so
// a fixed seed reproduces the same fault sequence; only the wall-clock
// placement of the dip varies with host speed.

// FaultOptions sizes the kill-one-replica timeline.
type FaultOptions struct {
	// Clients is the closed-loop client count. Default 8.
	Clients int
	// Keys is the preloaded keyspace. Default 4096 (kept small so the
	// restarted replica's state transfer is brisk).
	Keys int
	// Cores per replica. Default 2.
	Cores int
	// Seed drives the workload and the injector streams. Default 1.
	Seed int64
	// Interval is the sample width of the timeline. Default 250ms.
	Interval time.Duration
	// CrashAt and RestartAt are the injector triggers, in global send
	// counts. Defaults 60000 and 85000: the gap is sized so the crash
	// window spans several samples even though slow-path traffic sends
	// far fewer messages per second.
	CrashAt   uint64
	RestartAt uint64
	// Tail is how many samples to record after the restart has been
	// mirrored onto the replica (the recovery side of the dip). Default 8.
	Tail int
	// MaxSamples bounds the run if the schedule stalls. Default 240.
	MaxSamples int
	// CommitTimeout is the cluster's per-round-trip wait. Default 15ms —
	// short, so the fast-quorum wait that precedes every slow-path commit
	// during the crash window stays cheap.
	CommitTimeout time.Duration
}

func (o *FaultOptions) fill() {
	if o.Clients == 0 {
		o.Clients = 8
	}
	if o.Keys == 0 {
		o.Keys = 4096
	}
	if o.Cores == 0 {
		o.Cores = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Interval == 0 {
		o.Interval = 250 * time.Millisecond
	}
	if o.CrashAt == 0 {
		o.CrashAt = 60000
	}
	if o.RestartAt == 0 {
		o.RestartAt = o.CrashAt + 25000
	}
	if o.Tail == 0 {
		o.Tail = 8
	}
	if o.MaxSamples == 0 {
		o.MaxSamples = 240
	}
	if o.CommitTimeout == 0 {
		o.CommitTimeout = 15 * time.Millisecond
	}
}

// FaultPlan builds the kill-one-replica schedule: crash the last replica of
// partition 0 at crashAt sends, restart it at restartAt.
func FaultPlan(seed int64, crashAt, restartAt uint64, victim uint32) *faultnet.Plan {
	return &faultnet.Plan{
		Seed: seed,
		Events: []faultnet.Event{
			{At: crashAt, Op: faultnet.OpCrash, Node: victim},
			{At: restartAt, Op: faultnet.OpRestart, Node: victim},
		},
	}
}

// FaultTimeline runs the kill-one-replica experiment and returns one Point
// per sample interval: X is seconds since the run started, Goodput is
// committed transactions per second within the interval (from the cluster's
// commit counters), and Path carries the fast/slow split that makes the
// coordination shift visible. Sampling continues until opts.Tail samples
// after the replica restart, or opts.MaxSamples.
func FaultTimeline(w io.Writer, opts FaultOptions) ([]Point, error) {
	opts.fill()
	db, err := meerkat.Open(meerkat.Config{
		Cores:         opts.Cores,
		Seed:          opts.Seed,
		CommitTimeout: opts.CommitTimeout,
		Faults:        FaultPlan(opts.Seed, opts.CrashAt, opts.RestartAt, 2),
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	adm := db.Admin()

	value := workload.Value(64)
	for i := 0; i < opts.Keys; i++ {
		db.Load(workload.KeyName(i), value)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Lifecycle controller: mirror the injector's crash/restart onto the
	// real replica so the dip exercises state transfer and epoch change.
	// crashedAt / restartedAt hold sample-clock nanoseconds (0 = not yet).
	start := time.Now()
	var crashedAt, restartedAt atomic.Int64
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		for {
			select {
			case ev := <-adm.FaultEvents():
				p, r, ok := adm.ReplicaOf(ev.Node)
				if !ok {
					continue
				}
				switch ev.Op {
				case faultnet.OpCrash:
					adm.CrashReplica(p, r)
					crashedAt.Store(int64(time.Since(start)) | 1)
				case faultnet.OpRestart:
					for {
						if err := adm.RecoverReplica(p, r); err == nil {
							restartedAt.Store(int64(time.Since(start)) | 1)
							break
						}
						select {
						case <-ctx.Done():
							return
						case <-time.After(10 * time.Millisecond):
						}
					}
				}
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < opts.Clients; i++ {
		cl, err := db.Client()
		if err != nil {
			cancel()
			wg.Wait()
			<-ctlDone
			return nil, err
		}
		wg.Add(1)
		go func(cl *meerkat.Client, i int) {
			defer wg.Done()
			defer cl.Close()
			rng := rand.New(rand.NewSource(opts.Seed + int64(i)*7919))
			gen := workload.NewYCSBT(workload.NewUniform(opts.Keys))
			var gets []string
			for ctx.Err() == nil {
				spec := gen.Next(rng)
				cl.Run(ctx, func(t *meerkat.Txn) error {
					return execSpec(t, &spec, value, &gets)
				})
			}
		}(cl, i)
	}

	fmt.Fprintf(w, "# kill-one-replica timeline: crash at %d sends, restart at %d (seed %d)\n",
		opts.CrashAt, opts.RestartAt, opts.Seed)
	fmt.Fprintf(w, "%8s %12s %9s %8s %8s %7s  %s\n",
		"t", "goodput", "abort%", "fast", "slow", "fast%", "phase")

	var points []Point
	prev := adm.Obs().Snapshot()
	tail := 0
	for sample := 0; sample < opts.MaxSamples && tail < opts.Tail; sample++ {
		time.Sleep(opts.Interval)
		snap := adm.Obs().Snapshot()
		d := snap.Sub(prev)
		prev = snap
		elapsed := time.Since(start)

		path := pathStats(d)
		commits := path.FastCommits + path.SlowCommits
		aborts := path.ValidationAborts + path.AcceptAborts
		p := Point{
			System:  string(SystemMeerkat),
			X:       elapsed.Seconds(),
			Goodput: float64(commits) / opts.Interval.Seconds(),
			Path:    path,
		}
		if commits+aborts > 0 {
			p.AbortRate = float64(aborts) / float64(commits+aborts)
		}
		points = append(points, p)

		phase := "healthy"
		switch {
		case restartedAt.Load() != 0 && elapsed > time.Duration(restartedAt.Load()):
			phase = "recovered"
			tail++
		case crashedAt.Load() != 0 && elapsed > time.Duration(crashedAt.Load()):
			phase = "crashed"
		}
		fmt.Fprintf(w, "%7.2fs %12.0f %8.1f%% %8d %8d %6.1f%%  %s\n",
			p.X, p.Goodput, p.AbortRate*100, path.FastCommits, path.SlowCommits,
			path.FastFraction()*100, phase)
	}
	cancel()
	wg.Wait()
	<-ctlDone

	if restartedAt.Load() == 0 {
		fired := adm.FaultNetwork().Stats().EventsFired.Load()
		return points, fmt.Errorf("bench: fault schedule incomplete after %d samples (%d/2 events fired)",
			len(points), fired)
	}
	return points, nil
}
