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

// A timeline drives a Meerkat deployment with closed-loop clients while a
// background action disturbs it, and samples goodput per interval from the
// deployment's commit counters: the dip while the action is in progress and
// the recovery after it. The kill-one-replica experiment is a timeline.

// timelineSize is the sizing of a timeline that tests shrink; the rest of a
// timeline is fixed by its experiment.
type timelineSize struct {
	Clients int
	Keys    int
	// Seed drives the workload and, for the fault plan, the injector streams.
	Seed     int64
	Interval time.Duration // sample width
	Tail     int           // samples recorded after the action finished
	// CrashAt and RestartAt are the kill-one-replica plan's triggers, in
	// global send counts.
	CrashAt, RestartAt uint64
}

// timelineMaxSamples bounds a run whose action stalls.
const timelineMaxSamples = 240

type timelineSpec struct {
	name string // the Points' System
	head string
	cfg  meerkat.Config
	size timelineSize
	gen  func() workload.Generator

	phases [3]string // sample label before, during and after the action
	// action runs in the background once the clients are, reports its
	// progress through began and finished, and returns when done or when ctx
	// is.
	action func(ctx context.Context, adm *meerkat.Admin, began, finished func()) error
}

// timeline runs s and returns one Point per sample interval: X is seconds
// since the run started, Goodput is committed transactions per second within
// the interval, and Path carries the fast/slow/read-only split that makes a
// coordination shift visible. Sampling continues until size.Tail samples
// after the action finished, or timelineMaxSamples.
func timeline(w io.Writer, s timelineSpec) ([]Point, error) {
	db, err := meerkat.Open(s.cfg)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	adm := db.Admin()

	preload(db.Load, s.size.Keys)
	value := workload.Value(valueSize)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()

	for i := 0; i < s.size.Clients; i++ {
		cl, err := db.Client()
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(cl *meerkat.Client, i int) {
			defer wg.Done()
			defer cl.Close()
			rng := rand.New(rand.NewSource(s.size.Seed + int64(i)*7919))
			gen := s.gen()
			var gets []string
			for ctx.Err() == nil {
				spec := gen.Next(rng)
				// Errors are the disturbance being measured; the commit
				// counters below are the record.
				_ = cl.Run(ctx, func(t *meerkat.Txn) error {
					return execSpec(t, &spec, value, &gets)
				})
			}
		}(cl, i)
	}

	var began, finished atomic.Bool
	var actionErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		actionErr = s.action(ctx, adm, func() { began.Store(true) }, func() { finished.Store(true) })
	}()

	fmt.Fprintf(w, "# %s\n%8s %12s %9s %8s %8s %8s  %s\n", s.head,
		"t", "goodput", "abort%", "fast", "slow", "ro", "phase")
	var points []Point
	start := time.Now()
	prev := adm.Obs().Snapshot()
	for sample, tail := 0, 0; sample < timelineMaxSamples && tail < s.size.Tail; sample++ {
		time.Sleep(s.size.Interval)
		snap := adm.Obs().Snapshot()
		path := pathStats(snap.Sub(prev))
		prev = snap

		commits := path.FastCommits + path.SlowCommits + path.ROCommits
		aborts := path.ValidationAborts + path.AcceptAborts
		p := Point{
			System:  s.name,
			X:       time.Since(start).Seconds(),
			Goodput: float64(commits) / s.size.Interval.Seconds(),
			Path:    path,
		}
		if commits+aborts > 0 {
			p.AbortRate = float64(aborts) / float64(commits+aborts)
		}
		points = append(points, p)

		phase := s.phases[0]
		switch {
		case finished.Load():
			phase = s.phases[2]
			tail++
		case began.Load():
			phase = s.phases[1]
		}
		fmt.Fprintf(w, "%7.2fs %12.0f %8.1f%% %8d %8d %8d  %s\n", p.X, p.Goodput,
			p.AbortRate*100, path.FastCommits, path.SlowCommits, path.ROCommits, phase)
	}
	cancel()
	wg.Wait()

	if actionErr != nil {
		return points, fmt.Errorf("bench: %s timeline: %w", s.name, actionErr)
	}
	if !finished.Load() {
		return points, fmt.Errorf("bench: %s timeline: action incomplete after %d samples", s.name, len(points))
	}
	return points, nil
}

// faultTimeline is the kill-one-replica experiment: a Meerkat cluster runs
// the YCSB-T workload while the fault injector crashes one replica and later
// restarts it. The timeline shows the zero-coordination failure story: with a
// replica down the supermajority fast quorum is unreachable, so goodput dips
// onto the slow path (which keeps committing on a simple majority); after the
// restart — state transfer plus epoch change — the fast path, and goodput,
// recover.
//
// The schedule is pure data (a faultnet.Plan keyed on global send counts), so
// a fixed seed reproduces the same fault sequence; only the wall-clock
// placement of the dip varies with host speed.
func faultTimeline(w io.Writer, size timelineSize) ([]Point, error) {
	const victim = 2 // the last replica of shard 0
	return timeline(w, timelineSpec{
		name: string(SystemMeerkat),
		head: fmt.Sprintf("kill-one-replica timeline: crash at %d sends, restart at %d (seed %d)",
			size.CrashAt, size.RestartAt, size.Seed),
		cfg: meerkat.Config{
			Cores: 2,
			Seed:  size.Seed,
			// Short, so the fast-quorum wait that precedes every slow-path
			// commit during the crash window stays cheap.
			CommitTimeout: 15 * time.Millisecond,
			Faults: &faultnet.Plan{Seed: size.Seed, Events: []faultnet.Event{
				{At: size.CrashAt, Op: faultnet.OpCrash, Node: victim},
				{At: size.RestartAt, Op: faultnet.OpRestart, Node: victim},
			}},
		},
		size:   size,
		gen:    func() workload.Generator { return workload.NewYCSBT(workload.NewUniform(size.Keys)) },
		phases: [3]string{"healthy", "crashed", "recovered"},
		// Mirror the injector's crash/restart onto the real replica so the
		// dip exercises state transfer and epoch change.
		action: func(ctx context.Context, adm *meerkat.Admin, began, finished func()) error {
			adm.FaultNetwork().Mirror(ctx, adm, func(ev faultnet.Event) {
				if ev.Op == faultnet.OpCrash {
					began()
				} else {
					finished()
				}
			})
			return nil
		},
	})
}
