package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"meerkat/internal/obs"
	"meerkat/internal/workload"
)

// This file defines the experiment sweeps that regenerate the evaluation's
// figures from the real implementation. Absolute numbers depend on the host
// (the paper used 3x40-core servers with kernel-bypass NICs; see
// EXPERIMENTS.md), but the comparisons — which system wins, how abort rates
// move with contention — come from these sweeps. The companion simulator
// (internal/sim) regenerates the multicore scaling *shapes* that a
// small host cannot exhibit.

// Options bounds experiment durations so the full suite stays tractable.
type Options struct {
	Measure time.Duration // per-point measured window
	Warmup  time.Duration
	Keys    int
	Clients int // closed-loop clients per point (0 = 2x threads)
	Seed    int64
	// Obs, when non-nil, is wired through every system the sweep builds,
	// so one live exporter observes the whole run.
	Obs *obs.Registry
}

func (o *Options) fill() {
	if o.Measure == 0 {
		o.Measure = 500 * time.Millisecond
	}
	if o.Warmup == 0 {
		o.Warmup = 100 * time.Millisecond
	}
	if o.Keys == 0 {
		o.Keys = 65536
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Point is one measured data point of a figure.
type Point struct {
	System    string
	X         float64 // threads (Figs 4/5) or Zipf coefficient (Figs 6/7)
	Goodput   float64
	AbortRate float64
	P50       time.Duration
	P99       time.Duration
	P999      time.Duration
	Path      PathStats // coordination-path breakdown of the window

	// Wire-level cost, set by the UDP transport experiment only: socket
	// syscalls per committed transaction and datagrams moved per send
	// syscall (the batching the transport amortizes; 1.0 means no
	// amortization).
	SyscallsPerTxn      float64
	DatagramsPerSyscall float64

	// FsyncsPerTxn is set by the WAL durability experiment only: fsync
	// calls per committed transaction (group commit amortizes this far
	// below 1; SyncAlways pays at least one per commit per replica).
	FsyncsPerTxn float64
}

// genFactory builds per-client generator factories for a workload/theta.
func genFactory(name string, keys int, theta float64) func() workload.Generator {
	chooser := workload.NewChooser(keys, theta)
	if name == "retwis" {
		return func() workload.Generator { return workload.NewRetwis(chooser) }
	}
	return func() workload.Generator { return workload.NewYCSBT(chooser) }
}

// runPoint measures one (system, workload, theta, threads) cell.
func runPoint(kind SystemKind, wl string, theta float64, threads int, opts Options) (Point, error) {
	opts.fill()
	sys, err := NewSystem(SystemConfig{Kind: kind, Cores: threads, Obs: opts.Obs})
	if err != nil {
		return Point{}, err
	}
	defer sys.Close()
	clients := opts.Clients
	if clients == 0 {
		clients = 2 * threads
	}
	res, err := Run(RunConfig{
		System:       sys,
		NewGenerator: genFactory(wl, opts.Keys, theta),
		Clients:      clients,
		Keys:         opts.Keys,
		Warmup:       opts.Warmup,
		Measure:      opts.Measure,
		Seed:         opts.Seed,
	})
	if err != nil {
		return Point{}, err
	}
	return res.Point(string(kind), 0), nil
}

// ThreadSweep regenerates the measured analogue of Figure 4 (wl="ycsb-t")
// or Figure 5 (wl="retwis"): goodput as server threads grow, uniform keys,
// for all four systems.
func ThreadSweep(w io.Writer, wl string, threads []int, opts Options) ([]Point, error) {
	var out []Point
	fmt.Fprintf(w, "# %s uniform: goodput (txns/sec) vs server threads\n", wl)
	fmt.Fprintf(w, "%-12s %8s %12s %9s %10s %10s %7s\n", "system", "threads", "goodput", "abort%", "p50", "p99", "fast%")
	for _, kind := range AllSystems {
		for _, th := range threads {
			p, err := runPoint(kind, wl, 0, th, opts)
			if err != nil {
				return out, err
			}
			p.X = float64(th)
			out = append(out, p)
			fmt.Fprintf(w, "%-12s %8d %12.0f %8.1f%% %10v %10v %6.1f%%\n",
				p.System, th, p.Goodput, p.AbortRate*100, p.P50, p.P99, p.Path.FastFraction()*100)
		}
	}
	return out, nil
}

// ZipfSweep regenerates Figures 6 and 7: goodput and abort rate for Meerkat
// vs Meerkat-PB across Zipf coefficients at a fixed thread count
// (wl="ycsb-t" for 6a/7a, "retwis" for 6b/7b).
func ZipfSweep(w io.Writer, wl string, thetas []float64, threads int, opts Options) ([]Point, error) {
	var out []Point
	fmt.Fprintf(w, "# %s, %d server threads: goodput and abort rate vs zipf coefficient\n", wl, threads)
	fmt.Fprintf(w, "%-12s %8s %12s %9s %10s %10s %7s\n", "system", "zipf", "goodput", "abort%", "p50", "p99", "fast%")
	for _, kind := range []SystemKind{SystemMeerkat, SystemMeerkatPB} {
		for _, theta := range thetas {
			p, err := runPoint(kind, wl, theta, threads, opts)
			if err != nil {
				return out, err
			}
			p.X = theta
			out = append(out, p)
			fmt.Fprintf(w, "%-12s %8.2f %12.0f %8.1f%% %10v %10v %6.1f%%\n",
				p.System, theta, p.Goodput, p.AbortRate*100, p.P50, p.P99, p.Path.FastFraction()*100)
		}
	}
	return out, nil
}

// Fig1Sweep regenerates the measured analogue of Figure 1: PUT throughput
// over the inproc (kernel-bypass-class) and UDP transports, with and
// without the shared atomic counter.
func Fig1Sweep(w io.Writer, threads []int, measure time.Duration) ([]Fig1Result, error) {
	var out []Fig1Result
	fmt.Fprintf(w, "# PUT throughput (ops/sec) vs server threads\n")
	fmt.Fprintf(w, "%-8s %8s %9s %14s\n", "stack", "threads", "counter", "puts/sec")
	port := 31000
	for _, tr := range []Fig1Transport{Fig1Inproc, Fig1UDP} {
		for _, counter := range []bool{false, true} {
			for _, th := range threads {
				r, err := RunFig1(Fig1Config{
					Transport:     tr,
					ServerThreads: th,
					SharedCounter: counter,
					Measure:       measure,
					UDPBasePort:   port,
				})
				if err != nil {
					return out, err
				}
				port += 512 // fresh ports per UDP run
				out = append(out, r)
				fmt.Fprintf(w, "%-8s %8d %9v %14.0f\n", r.Transport, th, counter, r.Throughput())
			}
		}
	}
	return out, nil
}

// Table1 prints the coordination matrix of the four prototypes (§6.1).
func Table1(w io.Writer) {
	fmt.Fprintln(w, "# Table 1: coordination structure of the evaluation prototypes")
	fmt.Fprintf(w, "%-12s %-24s %-26s\n", "system", "cross-core coordination", "cross-replica coordination")
	fmt.Fprintf(w, "%-12s %-24s %-26s\n", "kuafu++", "yes (counter+log+record)", "yes (primary-backup)")
	fmt.Fprintf(w, "%-12s %-24s %-26s\n", "tapir", "yes (shared record)", "no")
	fmt.Fprintf(w, "%-12s %-24s %-26s\n", "meerkat-pb", "no", "yes (primary-backup)")
	fmt.Fprintf(w, "%-12s %-24s %-26s\n", "meerkat", "no", "no")
}

// Table2 prints the Retwis mix as generated, to compare with the paper's
// Table 2.
func Table2(w io.Writer, samples int) {
	gen := workload.NewRetwis(workload.NewUniform(1 << 20))
	rng := newRand(1)
	counts := map[string]int{}
	gets := map[string]int{}
	puts := map[string]int{}
	for i := 0; i < samples; i++ {
		s := gen.Next(rng)
		counts[s.Kind]++
		gets[s.Kind] += len(s.Reads) + len(s.RMWs)
		puts[s.Kind] += len(s.RMWs) + len(s.Writes)
	}
	fmt.Fprintln(w, "# Table 2: generated Retwis mix")
	fmt.Fprintf(w, "%-16s %8s %8s %10s\n", "transaction", "gets", "puts", "workload%")
	for _, kind := range []string{"add-user", "follow-unfollow", "post-tweet", "load-timeline"} {
		n := counts[kind]
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "%-16s %8.1f %8.1f %9.1f%%\n",
			kind, float64(gets[kind])/float64(n), float64(puts[kind])/float64(n),
			100*float64(n)/float64(samples))
	}
}

// newRand isolates the single math/rand dependency of the table printers.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
