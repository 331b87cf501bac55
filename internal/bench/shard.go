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
	"meerkat/internal/shardmap"
	"meerkat/internal/workload"
)

// This file measures what the sharded cluster layer buys: Retwis goodput at
// 1, 2, and 4 shards, plus a timeline of a shard split landing under load.
//
// A single host cannot show shard scaling directly — every "shard" is the
// same CPU — so the sweep runs under the in-process transport's capacity
// model (Config.InprocServiceTime): each replica endpoint is capped at one
// message per service interval, exactly the per-machine packet budget that
// makes sharding pay on real hardware. Adding shards adds replica endpoints,
// i.e. capacity; whether goodput follows depends on the client-side routing
// actually spreading load and on transactions staying on few shards. Clients
// are homed round-robin across shards and pick Locality of their keys from
// their home shard — the deployed Retwis pattern, where a user's profile,
// tweets, and timeline live together and only follows cross users.

// ShardOptions sizes the shard-count sweep beyond the shared Options.
type ShardOptions struct {
	Options
	// Shards lists the swept shard counts. Default 1, 2, 4.
	Shards []int
	// MaxShards is the provisioned group count, constant across cells so
	// every cell runs on identical hardware and only the shard map differs.
	// Default: the largest swept shard count.
	MaxShards int
	// Cores per replica. Default 1: the capacity model meters per-endpoint,
	// so one core per replica keeps "more shards" the only capacity lever.
	Cores int
	// ServiceTime is the per-message service interval of every replica
	// endpoint (the capacity model). Default 200µs.
	ServiceTime time.Duration
	// Locality is the probability each key a client picks lives on its home
	// shard. Default 0.95; the remainder is uniform over the whole keyspace,
	// so cross-shard transactions stay a steady fraction of the mix.
	Locality float64
}

func (o *ShardOptions) fill() {
	if o.Keys == 0 {
		o.Keys = 16384
	}
	o.Options.fill()
	if o.Clients == 0 {
		// Enough closed-loop demand to saturate the single-shard cell's
		// endpoint capacity; below that, queueing latency rather than
		// capacity sets goodput and the scaling curve flattens.
		o.Clients = 128
	}
	if len(o.Shards) == 0 {
		o.Shards = []int{1, 2, 4}
	}
	if o.MaxShards == 0 {
		for _, n := range o.Shards {
			if n > o.MaxShards {
				o.MaxShards = n
			}
		}
	}
	if o.Cores == 0 {
		o.Cores = 1
	}
	if o.ServiceTime == 0 {
		o.ServiceTime = 200 * time.Microsecond
	}
	if o.Locality == 0 {
		o.Locality = 0.95
	}
}

// homedChooser picks key indices from one shard's slice of the keyspace with
// probability locality, and uniformly from the whole keyspace otherwise.
// Immutable, like every KeyChooser.
type homedChooser struct {
	home     []int
	n        int
	locality float64
}

func (c *homedChooser) Next(rng *rand.Rand) int {
	if rng.Float64() < c.locality {
		return c.home[rng.Intn(len(c.home))]
	}
	return rng.Intn(c.n)
}

func (c *homedChooser) N() int { return c.n }

// keysByGroup lists the key indices each shard owns under the version-1 map
// over shards groups, so client generators can be homed.
func keysByGroup(shards, keys int) [][]int {
	m := shardmap.New(shards)
	byGroup := make([][]int, shards)
	for i := 0; i < keys; i++ {
		g := m.GroupForKey(workload.KeyName(i))
		byGroup[g] = append(byGroup[g], i)
	}
	return byGroup
}

// openSharded opens the sweep's cell of `shards` owning groups behind the
// harness adapter and returns the per-shard key lists homing its clients.
func openSharded(shards int, opts ShardOptions) (*meerkatSystem, [][]int, error) {
	byGroup := keysByGroup(shards, opts.Keys)
	for g, keys := range byGroup {
		if len(keys) == 0 {
			return nil, nil, fmt.Errorf("bench: shard %d of %d owns none of the %d keys", g, shards, opts.Keys)
		}
	}
	sys, err := openMeerkat(fmt.Sprintf("%d-shard", shards), meerkat.Config{
		Shards:            shards,
		MaxShards:         opts.MaxShards,
		Cores:             opts.Cores,
		InprocServiceTime: opts.ServiceTime,
		// The saturated single-shard cell queues tens of milliseconds per
		// message round; a roomy per-round wait keeps timeouts out of the
		// measurement.
		CommitTimeout: 500 * time.Millisecond,
		Seed:          opts.Seed,
		Obs:           opts.Obs,
	}, 1)
	return sys, byGroup, err
}

// ShardSweep measures Retwis goodput at each swept shard count under the
// endpoint capacity model and returns one Point per cell, X carrying the
// shard count. The last line reports the scaling ratio of the largest cell
// over the single-shard baseline.
func ShardSweep(w io.Writer, opts ShardOptions) ([]Point, error) {
	opts.fill()
	fmt.Fprintf(w, "# retwis over the sharded cluster layer: %d closed-loop clients homed round-robin, %d keys, %.0f%% key locality, %v/message endpoint capacity model\n",
		opts.Clients, opts.Keys, opts.Locality*100, opts.ServiceTime)
	fmt.Fprintf(w, "%-8s %12s %8s %9s %10s %10s\n",
		"shards", "goodput", "speedup", "abort%", "p50", "p99")
	var out []Point
	base := 0.0
	for _, shards := range opts.Shards {
		sys, byGroup, err := openSharded(shards, opts)
		if err != nil {
			return out, err
		}
		var clientSeq atomic.Int64
		res, err := Run(RunConfig{
			System: sys,
			NewGenerator: func() workload.Generator {
				home := int(clientSeq.Add(1) - 1)
				return workload.NewRetwis(&homedChooser{home: byGroup[home%shards], n: opts.Keys, locality: opts.Locality})
			},
			Clients: opts.Clients,
			Keys:    opts.Keys,
			Warmup:  opts.Warmup,
			Measure: opts.Measure,
			Seed:    opts.Seed,
		})
		sys.Close()
		if err != nil {
			return out, err
		}
		p := res.Point(sys.Name(), float64(shards))
		out = append(out, p)
		speedup := "-"
		if base == 0 {
			base = p.Goodput
		} else if base > 0 {
			speedup = fmt.Sprintf("%.2fx", p.Goodput/base)
		}
		fmt.Fprintf(w, "%-8d %12.0f %8s %8.1f%% %10v %10v\n",
			shards, p.Goodput, speedup, p.AbortRate*100, p.P50, p.P99)
	}
	return out, nil
}

// ShardSplitOptions sizes the split-under-load timeline.
type ShardSplitOptions struct {
	// Clients is the closed-loop client count. Default 32.
	Clients int
	// Keys is the preloaded keyspace. Default 8192 (the split migrates
	// roughly half of it).
	Keys int
	// Cores per replica. Default 1 (see ShardOptions.Cores).
	Cores int
	// Seed drives workload randomness. Default 1.
	Seed int64
	// Interval is the sample width. Default 200ms.
	Interval time.Duration
	// Lead is how many samples run on the single shard before the split
	// fires. Default 5.
	Lead int
	// Tail is how many samples to record after the split returns. Default 10.
	Tail int
	// MaxSamples bounds the run. Default 240.
	MaxSamples int
	// ServiceTime is the endpoint capacity model. Default 200µs.
	ServiceTime time.Duration
	// Locality homes each client's keys on its post-split shard (before the
	// split everything lives on shard 0 regardless). Default 0.95.
	Locality float64
}

func (o *ShardSplitOptions) fill() {
	if o.Clients == 0 {
		o.Clients = 32
	}
	if o.Keys == 0 {
		o.Keys = 8192
	}
	if o.Cores == 0 {
		o.Cores = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Interval == 0 {
		o.Interval = 200 * time.Millisecond
	}
	if o.Lead == 0 {
		o.Lead = 5
	}
	if o.Tail == 0 {
		o.Tail = 10
	}
	if o.MaxSamples == 0 {
		o.MaxSamples = 240
	}
	if o.ServiceTime == 0 {
		o.ServiceTime = 200 * time.Microsecond
	}
	if o.Locality == 0 {
		o.Locality = 0.95
	}
}

// ShardSplitTimeline runs Retwis against a 1-shard cluster (a second shard
// provisioned idle), fires Admin.Split mid-run, and samples goodput per
// interval: the dip while shard 0 seals, fences, and migrates half the
// keyspace, then the recovery onto doubled capacity as clients chase the
// redirects onto the new owner. X is seconds since the run started.
func ShardSplitTimeline(w io.Writer, opts ShardSplitOptions) ([]Point, error) {
	opts.fill()
	db, err := meerkat.Open(meerkat.Config{
		Shards:            1,
		MaxShards:         2,
		Cores:             opts.Cores,
		InprocServiceTime: opts.ServiceTime,
		Seed:              opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()

	value := workload.Value(64)
	for i := 0; i < opts.Keys; i++ {
		db.Load(workload.KeyName(i), value)
	}

	// Home clients by the post-split map: before the split every key lives
	// on shard 0 anyway, so homing only shapes where load lands afterwards.
	byGroup := keysByGroup(2, opts.Keys)

	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); wg.Wait() }()
	for i := 0; i < opts.Clients; i++ {
		cl, err := db.Client()
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(cl *meerkat.Client, i int) {
			defer wg.Done()
			defer cl.Close()
			rng := rand.New(rand.NewSource(opts.Seed + int64(i)*7919))
			gen := workload.NewRetwis(&homedChooser{
				home: byGroup[i%2], n: opts.Keys, locality: opts.Locality,
			})
			var gets []string
			for ctx.Err() == nil {
				spec := gen.Next(rng)
				cl.Run(ctx, func(t *meerkat.Txn) error {
					return execSpec(t, &spec, value, &gets)
				})
			}
		}(cl, i)
	}

	fmt.Fprintf(w, "# shard split under load: %d clients, %d keys, split fires after %d samples (%v/message endpoint capacity model)\n",
		opts.Clients, opts.Keys, opts.Lead, opts.ServiceTime)
	fmt.Fprintf(w, "%8s %12s %9s %8s %8s %8s  %s\n",
		"t", "goodput", "abort%", "fast", "slow", "ro", "phase")

	start := time.Now()
	// splitAt and splitDone hold nanoseconds since start (0 = not yet).
	var splitAt, splitDone atomic.Int64
	var splitErr error
	splitOnce := make(chan struct{})
	go func() {
		select {
		case <-splitOnce:
		case <-ctx.Done():
			return
		}
		splitAt.Store(int64(time.Since(start)) | 1)
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if _, err = db.Admin().Split(0); err == nil {
				break
			}
		}
		splitErr = err
		splitDone.Store(int64(time.Since(start)) | 1)
	}()

	var points []Point
	prev := db.Admin().Obs().Snapshot()
	tail := 0
	for sample := 0; sample < opts.MaxSamples && tail < opts.Tail; sample++ {
		time.Sleep(opts.Interval)
		snap := db.Admin().Obs().Snapshot()
		d := snap.Sub(prev)
		prev = snap
		elapsed := time.Since(start)

		path := pathStats(d)
		commits := path.FastCommits + path.SlowCommits + path.ROCommits
		aborts := path.ValidationAborts + path.AcceptAborts
		p := Point{
			System:  "split",
			X:       elapsed.Seconds(),
			Goodput: float64(commits) / opts.Interval.Seconds(),
			Path:    path,
		}
		if commits+aborts > 0 {
			p.AbortRate = float64(aborts) / float64(commits+aborts)
		}
		points = append(points, p)

		phase := "1-shard"
		switch {
		case splitDone.Load() != 0:
			phase = "2-shard"
			tail++
		case splitAt.Load() != 0:
			phase = "splitting"
		}
		fmt.Fprintf(w, "%7.2fs %12.0f %8.1f%% %8d %8d %8d  %s\n",
			p.X, p.Goodput, p.AbortRate*100, path.FastCommits, path.SlowCommits,
			path.ROCommits, phase)

		if sample+1 == opts.Lead {
			close(splitOnce)
		}
	}

	if splitDone.Load() == 0 {
		return points, fmt.Errorf("bench: split did not complete within %d samples", len(points))
	}
	if splitErr != nil {
		return points, fmt.Errorf("bench: shard split failed: %w", splitErr)
	}
	return points, nil
}
