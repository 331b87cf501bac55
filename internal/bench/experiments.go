package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"meerkat/internal/obs"
	"meerkat/internal/workload"
)

// Options bounds experiment durations so the full suite stays tractable.
// Measure, Warmup and Keys have no defaults here: meerkat-bench's flags and
// the tests supply them.
type Options struct {
	Measure time.Duration // per-point measured window
	Warmup  time.Duration
	Keys    int
	Clients int // closed-loop clients per point (0 = the experiment's own count)
	// Obs, when non-nil, is wired through every system the sweep builds,
	// so one live exporter observes the whole run.
	Obs *obs.Registry
}

// seed makes every measured run's client randomness reproducible.
const seed = 1

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

	// FsyncsPerTxn is set by the WAL durability experiment only: fsync
	// calls per committed transaction (group commit amortizes this far
	// below 1; SyncAlways pays at least one per commit per replica).
	FsyncsPerTxn float64
}

// Fig1Sweep regenerates the measured analogue of Figure 1: PUT throughput
// over the inproc (kernel-bypass-class) and UDP transports, with and
// without the shared atomic counter, one Point per (stack, counter, threads).
func Fig1Sweep(w io.Writer, threads []int, measure time.Duration) ([]Point, error) {
	var out []Point
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
				name := r.Transport
				if counter {
					name += "+counter"
				}
				out = append(out, Point{System: name, X: float64(th), Goodput: r.Throughput()})
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

// retwisKinds lists Retwis's transaction kinds in Table 2's order.
var retwisKinds = []string{"add-user", "follow-unfollow", "post-tweet", "load-timeline"}

// Table2 prints the Retwis mix as generated, to compare with the paper's
// Table 2.
func Table2(w io.Writer, samples int) {
	gen := workload.NewRetwis(workload.NewUniform(1 << 20))
	rng := rand.New(rand.NewSource(1))
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
	for _, kind := range retwisKinds {
		n := counts[kind]
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "%-16s %8.1f %8.1f %9.1f%%\n",
			kind, float64(gets[kind])/float64(n), float64(puts[kind])/float64(n),
			100*float64(n)/float64(samples))
	}
}
