package bench

import (
	"fmt"
	"math/rand"

	"meerkat"
	"meerkat/internal/workload"
)

// This file builds the cells of every measured sweep: the paper's Figures
// 4-7 on the four prototypes, and the extension experiments (durability,
// commutative ops) on Meerkat.
// Absolute numbers depend on the host (the paper used 3x40-core servers with
// kernel-bypass NICs; see EXPERIMENTS.md), but the comparisons — which
// system wins, how abort rates move with contention — come from these
// sweeps. The companion simulator (internal/sim) regenerates the multicore
// scaling *shapes* that a small host cannot exhibit.

// genFactory builds per-client generator factories for a workload/theta.
func genFactory(name string, keys int, theta float64) func() workload.Generator {
	chooser := workload.NewChooser(keys, theta)
	if name == "retwis" {
		return func() workload.Generator { return workload.NewRetwis(chooser) }
	}
	return func() workload.Generator { return workload.NewYCSBT(chooser) }
}

// threadCells is the measured analogue of Figure 4 (wl="ycsb-t") or Figure 5
// (wl="retwis"): all four systems as server threads grow, uniform keys, two
// closed-loop clients per thread.
func threadCells(wl string) func(Env) []cell {
	return func(env Env) []cell {
		var cells []cell
		for _, kind := range AllSystems {
			for _, th := range env.RealThreads {
				cells = append(cells, cell{
					name: string(kind), x: float64(th),
					sys:     SystemConfig{Kind: kind, Cores: th},
					gen:     genFactory(wl, env.Keys, 0),
					clients: 2 * th,
				})
			}
		}
		return cells
	}
}

// zipfCells is Figures 6 and 7: Meerkat vs Meerkat-PB across Zipf
// coefficients at a fixed thread count (wl="ycsb-t" for 6a/7a, "retwis" for
// 6b/7b). The paper uses 64 server threads, but on a small host extra
// threads only add scheduler noise, so the measured sweep caps them at 4.
func zipfCells(wl string) func(Env) []cell {
	return func(env Env) []cell {
		threads := env.ZipfThreads
		if threads > 8 {
			threads = 4
		}
		var cells []cell
		for _, kind := range []SystemKind{SystemMeerkat, SystemMeerkatPB} {
			for _, theta := range env.Zipfs {
				cells = append(cells, cell{
					name: string(kind), x: theta,
					sys:     SystemConfig{Kind: kind, Cores: threads},
					gen:     genFactory(wl, env.Keys, theta),
					clients: 2 * threads,
				})
			}
		}
		return cells
	}
}

// latencyCells measures unloaded commit latency across the four systems —
// the quantitative backing for the paper's §6.2 remark that Meerkat "does
// not sacrifice latency to achieve scalability ... the protocol saves one
// round trip compared to most state-of-the-art systems". One synchronous
// client per system issues YCSB-T transactions.
//
// Expected shape: Meerkat's fast path costs one validate round trip; the
// primary-backup systems pay submit + replicate + ack before replying, so
// at equal message cost their unloaded latency is comparable or higher
// once the replication round is on the critical path. (On a loaded system
// the queueing differences of Figure 4 dominate instead.)
func latencyCells(env Env) []cell {
	var cells []cell
	for _, kind := range AllSystems {
		cells = append(cells, cell{
			name: string(kind), unloaded: true,
			sys: SystemConfig{Kind: kind, Cores: 2},
			gen: genFactory("ycsb-t", env.Keys, 0),
		})
	}
	return cells
}

// retwisLatencyCells measures unloaded latency per Retwis transaction kind
// on Meerkat. Retwis is the workload the batched execution phase targets:
// load-timeline reads up to ten keys and pays one coordinator round trip per
// touched partition instead of one per key, so its p50 is the experiment's
// headline number. One synchronous client per kind.
func retwisLatencyCells(env Env) []cell {
	retwis := genFactory("retwis", env.Keys, 0)
	var cells []cell
	for _, kind := range retwisKinds {
		cells = append(cells, cell{
			name: kind, unloaded: true,
			sys: SystemConfig{Kind: SystemMeerkat, Cores: 2},
			gen: func() workload.Generator { return onlyKind{retwis(), kind} },
		})
	}
	return cells
}

// onlyKind narrows a generator to the transactions of one kind.
type onlyKind struct {
	workload.Generator
	kind string
}

func (g onlyKind) Next(rng *rand.Rand) workload.TxnSpec {
	for {
		if spec := g.Generator.Next(rng); spec.Kind == g.kind {
			return spec
		}
	}
}

// walCells measures what durability costs the commit hot path: the same
// Meerkat cluster and Retwis workload fully in memory, then with the
// per-core write-ahead log under each fsync policy, each row in its own
// throwaway directory. The figures of merit are goodput retained versus the
// in-memory row and fsyncs per committed transaction — group commit's whole
// point is to keep the latter far below one while SyncAlways shows the price
// of paying disk latency inline.
func walCells(env Env) []cell {
	rows := []cell{
		{name: "mem"},
		{name: "wal-none", durable: true, cfg: meerkat.Config{Durability: meerkat.Durability{Sync: meerkat.SyncNone}}},
		{name: "wal-batch", durable: true, cfg: meerkat.Config{Durability: meerkat.Durability{Sync: meerkat.SyncBatch}}},
		{name: "wal-always", durable: true, cfg: meerkat.Config{Durability: meerkat.Durability{Sync: meerkat.SyncAlways}}},
	}
	for i := range rows {
		c := &rows[i]
		c.gen = genFactory("retwis", env.Keys, 0)
		c.clients = 8
		if c.durable {
			c.cfg.Durability.SnapshotInterval = -1 // measure the log, not the snapshotter
		}
		c.annotate = func(sys *meerkatSystem) func(*Point) {
			base, _ := sys.db.Admin().WALStats()
			return func(p *Point) {
				// The WAL counters cover warmup + measure, a longer span
				// than the measured window — so derive the commit count
				// for the same span from the append delta: every replica
				// logs every commit exactly once.
				s, ok := sys.db.Admin().WALStats()
				if !ok {
					return
				}
				if commits := (s.Appends - base.Appends) / 3; commits > 0 {
					p.FsyncsPerTxn = float64(s.Syncs-base.Syncs) / float64(commits)
				}
			}
		}
	}
	return rows
}

var walColumns = []column{
	{"fsyncs/txn", func(pts []Point, i int) string { return fmt.Sprintf("%.4f", pts[i].FsyncsPerTxn) }},
}

// opsZipfKeys caps the hot-counter keyspace: a small one keeps the Zipf head
// genuinely hot at the default client count — the point is contention on
// the head, not I/O volume.
const opsZipfKeys = 256

// opsZipfCells measures what the typed commutative operations buy under
// contention: the same hot-counter workload swept across Zipf skew, once as
// the classic OCC read-modify-write (read the counter, write value+1 back)
// and once as a server-side Increment op. The RMW rows abort whenever two
// clients race on a hot key; the op rows carry no read version, so the
// replicas merge concurrent bumps at their commit timestamps and the abort
// rate stays near zero no matter how skewed the key popularity gets.
func opsZipfCells(env Env) []cell {
	keys := env.Keys
	if keys > opsZipfKeys {
		keys = opsZipfKeys
	}
	var cells []cell
	for _, theta := range []float64{0.5, 0.7, 0.9, 0.95, 0.99} {
		chooser := workload.NewChooser(keys, theta)
		for _, viaOp := range []bool{false, true} {
			cells = append(cells, cell{
				name: map[bool]string{false: "rmw-put", true: "incr-op"}[viaOp], x: theta,
				sys:     SystemConfig{Kind: SystemMeerkat, Cores: 4},
				gen:     func() workload.Generator { return workload.NewCounter(chooser, viaOp) },
				clients: 128,
				keys:    keys,
			})
		}
	}
	return cells
}
