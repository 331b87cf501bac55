package bench

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"meerkat"
	"meerkat/internal/shardmap"
	"meerkat/internal/workload"
)

// This file builds the cells of every measured sweep: the paper's Figures
// 4-7 on the four prototypes, and the extension experiments (transport,
// durability, commutative ops, read-only fast path, sharding) on Meerkat.
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

// The UDP sweep measures the wire-level cost of the transport stack: the
// same Meerkat cluster and Retwis workload over (a) the in-process fabric,
// (b) real loopback UDP forced onto one syscall per datagram, and (c) real
// UDP with the batched sendmmsg/recvmmsg path, with and without pipelined
// client sessions keeping the rings full. The figure of merit is socket
// syscalls per committed transaction — the coordination the batched
// transport amortizes away — alongside goodput, which should close most of
// the gap to the kernel-bypass-class inproc reference.
const (
	// udpWindow is the pipeline width of the session row (in-flight
	// transactions per socket set).
	udpWindow = 16
	// udpFlushDelay holds buffered datagrams up to this long waiting to
	// share a sendmmsg (micro-Nagle) in the pipelined row: about one round
	// trip of slack, enough for concurrent workers' messages to meet in one
	// syscall without moving the latency percentiles.
	udpFlushDelay = 20 * time.Microsecond
	// udpClients is equal across rows to keep the comparison honest; the
	// pipelined row reaches the same total via sessions of udpWindow
	// workers each.
	udpClients = 16
)

// udpCells places each UDP row's throwaway port map on its own stride from
// the base port, so a row's lingering sockets can never collide with the next.
func udpCells(env Env) []cell {
	basePort := env.UDPPort
	rows := []cell{
		{name: "inproc", window: 1},
		{name: "udp-unbatched", window: 1, cfg: meerkat.Config{Transport: meerkat.TransportUDP, UDPNoBatch: true}},
		{name: "udp-batched", window: 1, cfg: meerkat.Config{Transport: meerkat.TransportUDP}},
		{name: "udp-pipelined", window: udpWindow, cfg: meerkat.Config{Transport: meerkat.TransportUDP, UDPFlushDelay: udpFlushDelay}},
	}
	for i := range rows {
		c := &rows[i]
		c.x = float64(c.window)
		c.gen = genFactory("retwis", env.Keys, 0)
		c.clients = udpClients
		if c.cfg.Transport == meerkat.TransportUDP {
			c.cfg.UDPBasePort = basePort
			basePort += 1024
		}
		c.annotate = func(sys *meerkatSystem) func(*Point) {
			before := sys.Obs().Snapshot()
			return func(p *Point) {
				// Syscall counters cover the whole run (warmup included),
				// so divide by all its commits, not just the measured
				// window's.
				net, ok := sys.db.Admin().UDPStats()
				if !ok {
					return
				}
				path := pathStats(sys.Obs().Snapshot().Sub(before))
				if committed := path.FastCommits + path.SlowCommits + path.ROCommits; committed > 0 {
					p.SyscallsPerTxn = float64(net.Syscalls()) / float64(committed)
				}
				if net.SendSyscalls > 0 {
					p.DatagramsPerSyscall = float64(net.Sent) / float64(net.SendSyscalls)
				}
			}
		}
	}
	return rows
}

var udpColumns = []column{
	{"syscalls/txn", func(pts []Point, i int) string { return fmt.Sprintf("%.2f", pts[i].SyscallsPerTxn) }},
	{"dgrams/call", func(pts []Point, i int) string { return fmt.Sprintf("%.2f", pts[i].DatagramsPerSyscall) }},
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

// roCells measures what the read-only fast path buys on read-heavy Retwis:
// the same re-weighted mix (80/95/100% pure-read timeline loads) run twice
// per read fraction, once with the fast path ablated
// (DisableReadOnlyFastPath — every transaction pays the validation round,
// the two-round baseline) and once with marked read-only transactions
// committing locally off their snapshot reads.
func roCells(env Env) []cell {
	chooser := workload.NewChooser(env.Keys, 0.75)
	var cells []cell
	for _, frac := range []float64{0.80, 0.95, 1.00} {
		for _, twoRound := range []bool{true, false} {
			cells = append(cells, cell{
				name: map[bool]string{true: "two-round", false: "one-round"}[twoRound], x: frac,
				sys:     SystemConfig{Kind: SystemMeerkat, Cores: 4, DisableReadOnlyFastPath: twoRound},
				gen:     func() workload.Generator { return workload.NewRetwisMix(chooser, frac) },
				clients: 64,
			})
		}
	}
	return cells
}

// The one-round rows also report how many commits actually took the fast
// path, so a confirmation shortfall (retries, demotions) is visible rather
// than silently priced in.
var roColumns = []column{
	{"ro-share", func(pts []Point, i int) string {
		path := pts[i].Path
		total := path.ROCommits + path.FastCommits + path.SlowCommits
		if pts[i].System != "one-round" || total == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f%%", 100*float64(path.ROCommits)/float64(total))
	}},
}

// The shard sweep measures what the sharded cluster layer buys: Retwis
// goodput at 1, 2, and 4 shards.
//
// A single host cannot show shard scaling directly — every "shard" is the
// same CPU — so the sweep runs under the in-process transport's capacity
// model (Config.InprocServiceTime): each replica endpoint is capped at one
// message per service interval, exactly the per-machine packet budget that
// makes sharding pay on real hardware. Adding shards adds replica endpoints,
// i.e. capacity; whether goodput follows depends on the client-side routing
// actually spreading load and on transactions staying on few shards. Clients
// are homed round-robin across shards and pick shardLocality of their keys
// from their home shard — the deployed Retwis pattern, where a user's
// profile, tweets, and timeline live together and only follows cross users.
const (
	// shardMaxShards is the provisioned group count, constant across cells
	// so every cell runs on identical hardware and only the shard map
	// differs.
	shardMaxShards = 4
	// shardServiceTime is the per-message service interval of every replica
	// endpoint. The model meters per endpoint, so the sweep runs one core
	// per replica to keep "more shards" the only capacity lever.
	shardServiceTime = 200 * time.Microsecond
	// shardLocality is the probability each key a client picks lives on its
	// home shard; the remainder is uniform over the whole keyspace, so
	// cross-shard transactions stay a steady fraction of the mix.
	shardLocality = 0.95
	// shardClients is enough closed-loop demand to saturate the single-shard
	// cell's endpoint capacity; below that, queueing latency rather than
	// capacity sets goodput and the scaling curve flattens.
	shardClients = 128
)

func shardCells(env Env) []cell {
	var cells []cell
	for _, shards := range []int{1, 2, shardMaxShards} {
		byGroup := keysByGroup(shards, env.Keys)
		var clientSeq atomic.Int64
		cells = append(cells, cell{
			name: fmt.Sprintf("%d-shard", shards), x: float64(shards),
			cfg: meerkat.Config{
				Shards:            shards,
				MaxShards:         shardMaxShards,
				Cores:             1,
				InprocServiceTime: shardServiceTime,
				// The saturated single-shard cell queues tens of
				// milliseconds per message round; a roomy per-round wait
				// keeps timeouts out of the measurement.
				CommitTimeout: 500 * time.Millisecond,
				Seed:          seed,
			},
			gen: func() workload.Generator {
				home := int(clientSeq.Add(1)-1) % shards
				return workload.NewRetwis(&homedChooser{home: byGroup[home], n: env.Keys, locality: shardLocality})
			},
			clients: shardClients,
		})
	}
	return cells
}

// The speedup column is each cell's goodput over the single-shard baseline.
var shardColumns = []column{
	{"speedup", func(pts []Point, i int) string {
		if i == 0 || pts[0].Goodput == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", pts[i].Goodput/pts[0].Goodput)
	}},
}

// homedChooser picks key indices from one shard's slice of the keyspace with
// probability locality, and uniformly from the whole keyspace otherwise (or
// always, when the keyspace is too small to give the home shard a key).
// Immutable, like every KeyChooser.
type homedChooser struct {
	home     []int
	n        int
	locality float64
}

func (c *homedChooser) Next(rng *rand.Rand) int {
	if len(c.home) > 0 && rng.Float64() < c.locality {
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
