package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"meerkat/internal/sim"
)

// Env is what one meerkat-bench invocation fixes for every experiment it
// runs: the measured runs' Options, the sweep axes, and the simulator's
// parameters.
type Env struct {
	Options
	SimThreads  []int     // simulated thread axis (Figures 1, 4, 5)
	RealThreads []int     // measured thread axis, bounded by the host's cores
	Zipfs       []float64 // Zipf axis of Figures 6 and 7
	ZipfThreads int       // server threads of the simulated Figures 6 and 7
	Sim         sim.Params

	// timeline, when set, replaces the sizing of both timelines (tests).
	timeline timelineSize
}

// Experiment is one section of meerkat-bench's output. A figure with a
// simulated and a measured section is two entries under one Name.
type Experiment struct {
	// Name selects the experiment on -exp; Alias is a second name that also
	// does (Figure 7 is Figure 6's abort-rate column).
	Name, Alias string
	Title       string
	// Measured experiments run the real implementation on this host's wall
	// clock; the others (simulated series, generated tables) print the same
	// bytes on every run.
	Measured bool
	// Explicit experiments run only when named, never under "all": they
	// time the host's code, write real files or build a cluster per cell.
	Explicit bool

	// key names the experiment's points in the JSON report.
	key string
	// A sweep declares its table — heading, axis name, the cells to run and
	// the columns beyond the common ones; any other section supplies run.
	head, xHead string
	cells       func(Env) []cell
	extra       []column
	run         func(w io.Writer, env Env) ([]Point, error)
}

// Run prints the experiment's section to w and records its measured points
// — including those gathered before an error — in rep.
func (e *Experiment) Run(w io.Writer, env Env, rep Report) error {
	var pts []Point
	var err error
	if e.cells != nil {
		pts, err = sweep(w, env.Options, e.head, e.xHead, e.cells(env), e.extra)
	} else {
		pts, err = e.run(w, env)
	}
	if len(pts) > 0 {
		rep.Add(e.key, pts)
	}
	return err
}

// Experiments is the registry, in output order.
var Experiments = []Experiment{
	{Name: "table1", Title: "Table 1 (coordination matrix)",
		run: printed(func(w io.Writer, _ Env) { Table1(w) })},
	{Name: "table2", Title: "Table 2 (Retwis mix, generated)",
		run: printed(func(w io.Writer, _ Env) { Table2(w, 500000) })},
	{Name: "calibrate", Title: "host calibration", Measured: true, Explicit: true,
		run: printed(func(w io.Writer, _ Env) { fmt.Fprintf(w, "%+v\n", sim.Calibrate()) })},

	{Name: "fig1", Title: "Figure 1 (simulated: paper testbed)",
		run: printed(func(w io.Writer, env Env) { sim.Fig1Sweep(w, env.Sim, env.SimThreads) })},
	{Name: "fig1", Title: "Figure 1 (measured on this host)", Measured: true, key: "fig1",
		run: func(w io.Writer, env Env) ([]Point, error) { return Fig1Sweep(w, env.RealThreads, env.Measure) }},
	{Name: "fig4", Title: "Figure 4 (simulated: YCSB-T uniform, 3 replicas)",
		run: printed(func(w io.Writer, env Env) { sim.ThreadSweep(w, env.Sim, "ycsb-t", env.SimThreads) })},
	{Name: "fig4", Title: "Figure 4 (measured on this host)", Measured: true, key: "fig4",
		head: "ycsb-t uniform: goodput (txns/sec) vs server threads", xHead: "threads",
		cells: threadCells("ycsb-t"), extra: fastShare},
	{Name: "fig5", Title: "Figure 5 (simulated: Retwis uniform, 3 replicas)",
		run: printed(func(w io.Writer, env Env) { sim.ThreadSweep(w, env.Sim, "retwis", env.SimThreads) })},
	{Name: "fig5", Title: "Figure 5 (measured on this host)", Measured: true, key: "fig5",
		head: "retwis uniform: goodput (txns/sec) vs server threads", xHead: "threads",
		cells: threadCells("retwis"), extra: fastShare},
	{Name: "fig6a", Alias: "fig7a", Title: "Figures 6a/7a (simulated: YCSB-T vs zipf, 64 threads)",
		run: printed(func(w io.Writer, env Env) { sim.ZipfSweep(w, env.Sim, "ycsb-t", env.Zipfs, env.ZipfThreads) })},
	{Name: "fig6a", Alias: "fig7a", Title: "Figures 6a/7a (measured: YCSB-T vs zipf)", Measured: true, key: "fig6a_7a",
		head: "ycsb-t: goodput and abort rate vs zipf coefficient", xHead: "zipf",
		cells: zipfCells("ycsb-t"), extra: fastShare},
	{Name: "fig6b", Alias: "fig7b", Title: "Figures 6b/7b (simulated: Retwis vs zipf, 64 threads)",
		run: printed(func(w io.Writer, env Env) { sim.ZipfSweep(w, env.Sim, "retwis", env.Zipfs, env.ZipfThreads) })},
	{Name: "fig6b", Alias: "fig7b", Title: "Figures 6b/7b (measured: Retwis vs zipf)", Measured: true, key: "fig6b_7b",
		head: "retwis: goodput and abort rate vs zipf coefficient", xHead: "zipf",
		cells: zipfCells("retwis"), extra: fastShare},

	{Name: "wal", Title: "WAL durability cost (measured: goodput per fsync policy)", Measured: true, Explicit: true, key: "wal",
		head:  "retwis uniform: durability cost (goodput, fsyncs amortized by group commit)",
		cells: walCells, extra: walColumns},
	{Name: "zipf", Title: "Commutative ops under skew (measured: RMW write-back vs server-side increment)", Measured: true, Explicit: true, key: "zipf",
		head: "hot-counter workload: RMW write-back vs server-side increment across Zipf skew", xHead: "theta",
		cells: opsZipfCells},
	{Name: "faults", Title: "Kill-one-replica timeline (measured, fault injection)", Measured: true, key: "faults",
		run: func(w io.Writer, env Env) ([]Point, error) {
			// Keys are few so the restarted replica's state transfer is
			// brisk; the gap between the triggers is sized so the crash
			// window spans several samples even though slow-path traffic
			// sends far fewer messages per second.
			return faultTimeline(w, env.sized(timelineSize{
				Clients: 8, Keys: 4096, Seed: 1, Interval: 250 * time.Millisecond, Tail: 8,
				CrashAt: 60000, RestartAt: 85000,
			}))
		}},
	{Name: "latency", Title: "Unloaded commit latency (measured, §6.2 latency note)", Measured: true, key: "latency",
		head:  "unloaded commit latency, YCSB-T (1 RMW), 3 replicas, one synchronous client",
		cells: latencyCells},
	{Name: "retwis-latency", Title: "Retwis per-kind latency (measured, batched execution phase)", Measured: true, key: "retwis_latency",
		head:  "unloaded latency by Retwis txn kind, meerkat, 3 replicas, one synchronous client",
		cells: retwisLatencyCells},
}

// printed adapts a section that only prints.
func printed(f func(io.Writer, Env)) func(io.Writer, Env) ([]Point, error) {
	return func(w io.Writer, env Env) ([]Point, error) {
		f(w, env)
		return nil, nil
	}
}

func (env Env) sized(def timelineSize) timelineSize {
	if env.timeline != (timelineSize{}) {
		return env.timeline
	}
	return def
}

// Select resolves an -exp value — "all" or a comma-separated list of names —
// to the experiments to run, in registry order. skipReal drops every measured
// entry and skipSim every other one.
func Select(exp string, skipReal, skipSim bool) ([]*Experiment, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(exp, ",") {
		want[strings.TrimSpace(name)] = true
	}
	known := map[string]bool{"all": true}
	var out []*Experiment
	for i := range Experiments {
		e := &Experiments[i]
		known[e.Name], known[e.Alias] = true, true
		if e.Measured && skipReal || !e.Measured && skipSim {
			continue
		}
		if want[e.Name] || e.Alias != "" && want[e.Alias] || want["all"] && !e.Explicit {
			out = append(out, e)
		}
	}
	for name := range want {
		if name == "" || !known[name] {
			return nil, fmt.Errorf("unknown experiment %q (want %s)", name, Usage())
		}
	}
	return out, nil
}

// Usage lists every name -exp accepts, "|"-separated in registry order; a
// "*" marks the explicit-only ones.
func Usage() string {
	var names []string
	seen := map[string]bool{"": true}
	for _, e := range Experiments {
		for _, name := range []string{e.Name, e.Alias} {
			if seen[name] {
				continue
			}
			seen[name] = true
			if e.Explicit {
				name += "*"
			}
			names = append(names, name)
		}
	}
	return strings.Join(append(names, "all"), "|")
}
