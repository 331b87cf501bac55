package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"meerkat"
	"meerkat/internal/workload"
)

// This file measures what durability costs the commit hot path: the same
// Meerkat cluster and Retwis workload fully in memory, then with the
// per-core write-ahead log under each fsync policy. The figures of merit
// are goodput retained versus the in-memory row and fsyncs per committed
// transaction — group commit's whole point is to keep the latter far below
// one while SyncAlways shows the price of paying disk latency inline.

// WALOptions parameterizes the durability sweep beyond the shared Options.
type WALOptions struct {
	Options
	// Dir is the parent directory for the per-row data directories; empty
	// uses a throwaway directory under os.TempDir that the sweep removes.
	Dir string
	// GroupCommitInterval overrides the batch fsync cadence (default 2ms).
	GroupCommitInterval time.Duration
}

// WALSweep measures the durability comparison and returns one Point per
// row: in-memory, then the WAL under none/batch/always fsync policies.
func WALSweep(w io.Writer, opts WALOptions) ([]Point, error) {
	opts.Options.fill()
	if opts.Clients == 0 {
		opts.Clients = 8
	}
	if opts.Dir == "" {
		dir, err := os.MkdirTemp("", "meerkat-bench-wal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts.Dir = dir
	}
	rows := []struct {
		name    string
		durable bool
		sync    meerkat.SyncPolicy
	}{
		{"mem", false, 0},
		{"wal-none", true, meerkat.SyncNone},
		{"wal-batch", true, meerkat.SyncBatch},
		{"wal-always", true, meerkat.SyncAlways},
	}
	fmt.Fprintf(w, "# retwis uniform, %d closed-loop clients: durability cost (goodput, fsyncs amortized by group commit)\n", opts.Clients)
	fmt.Fprintf(w, "%-11s %12s %9s %10s %10s %11s\n",
		"row", "goodput", "abort%", "p50", "p99", "fsyncs/txn")
	var out []Point
	for _, row := range rows {
		cfg := meerkat.Config{Obs: opts.Obs}
		if row.durable {
			cfg.Durability = meerkat.Durability{
				DataDir:             fmt.Sprintf("%s/%s", opts.Dir, row.name),
				Sync:                row.sync,
				GroupCommitInterval: opts.GroupCommitInterval,
				SnapshotInterval:    -1, // measure the log, not the snapshotter
			}
		}
		p, err := runWALPoint(row.name, cfg, opts)
		if err != nil {
			return out, err
		}
		out = append(out, p)
		fmt.Fprintf(w, "%-11s %12.0f %8.1f%% %10v %10v %11.4f\n",
			p.System, p.Goodput, p.AbortRate*100, p.P50, p.P99, p.FsyncsPerTxn)
	}
	return out, nil
}

// runWALPoint opens a deployment per cfg, drives it with the closed-loop
// harness, and annotates the Point with the WAL's fsync amortization.
func runWALPoint(name string, cfg meerkat.Config, opts WALOptions) (Point, error) {
	sys, err := openMeerkat(name, cfg, 1)
	if err != nil {
		return Point{}, err
	}
	defer sys.Close()
	// Preload outside the harness so the bulk-load appends (one per key,
	// fsynced inline under SyncAlways) can be snapshotted away before the
	// measured traffic starts.
	val := workload.Value(64)
	for i := 0; i < opts.Keys; i++ {
		sys.Load(workload.KeyName(i), val)
	}
	base, _ := sys.db.Admin().WALStats()
	res, err := Run(RunConfig{
		System:       sys,
		NewGenerator: genFactory("retwis", opts.Keys, 0),
		Clients:      opts.Clients,
		Keys:         opts.Keys,
		Warmup:       opts.Warmup,
		Measure:      opts.Measure,
		Seed:         opts.Seed,
		SkipLoad:     true,
	})
	if err != nil {
		return Point{}, err
	}
	p := res.Point(name, 0)
	// The WAL counters cover warmup + measure (preload was snapshotted
	// away), a longer span than the measured window — so derive the commit
	// count for the same span from the append delta: every replica logs
	// every commit exactly once.
	if s, ok := sys.db.Admin().WALStats(); ok {
		syncs := s.Syncs - base.Syncs
		appends := s.Appends - base.Appends
		if commits := appends / 3; commits > 0 {
			p.FsyncsPerTxn = float64(syncs) / float64(commits)
		}
	}
	return p, nil
}
