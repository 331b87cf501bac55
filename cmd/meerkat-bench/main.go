// Command meerkat-bench regenerates the tables and figures of the Meerkat
// paper's evaluation (§6), and the experiments on this repository's
// extensions, from the registry in internal/bench.
//
// Each throughput figure has two sources:
//
//   - measured: the real implementation driven by closed-loop clients on
//     this host (in-process transport). Contention effects (Figures 6 and
//     7) reproduce directly; multicore scaling is limited by the host's
//     core count.
//   - simulated: the discrete-event multicore model (internal/sim), which
//     provides the paper's 3x80-thread testbed in virtual time. The
//     scaling figures (1, 4, 5) use it.
//
// Usage:
//
//	meerkat-bench -exp all             # everything not explicit-only
//	meerkat-bench -exp fig4            # Figure 4 (simulated + measured)
//	meerkat-bench -exp fig6a -measure 2s
//	meerkat-bench -exp calibrate       # host-calibrated simulator params
//	meerkat-bench -exp fig4 -calibrated
//	meerkat-bench -exp wal,zipf -json out.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"meerkat/internal/bench"
	"meerkat/internal/obs"
	"meerkat/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// process exit code.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("meerkat-bench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		exp         = fs.String("exp", "all", "experiments, comma-separated: "+bench.Usage()+" (those marked * time the host's code, write real files or build a cluster per cell, so they run only when named, never under all)")
		measure     = fs.Duration("measure", 500*time.Millisecond, "measured window per real data point")
		keys        = fs.Int("keys", 65536, "pre-loaded keys for real runs")
		clients     = fs.Int("clients", 0, "closed-loop clients per measured point (0 = per-experiment default)")
		threadsCSV  = fs.String("threads", "2,4,8,16,32,48,64,80", "simulated thread counts")
		realCSV     = fs.String("real-threads", "1,2,4", "measured thread counts (bounded by host cores)")
		zipfCSV     = fs.String("zipfs", "0,0.2,0.4,0.6,0.7,0.8,0.87,0.9,0.95,0.99", "zipf coefficients for figs 6/7")
		simThreads  = fs.Int("sim-threads", 64, "server threads of the figs 6/7 sweeps (the measured ones cap at 4)")
		calibrated  = fs.Bool("calibrated", false, "use host-calibrated simulator parameters instead of paper-anchored defaults")
		skipReal    = fs.Bool("skip-real", false, "skip every measured (real implementation) section")
		skipSim     = fs.Bool("skip-sim", false, "skip every simulated or generated section")
		jsonPath    = fs.String("json", "", "write machine-readable results (goodput, latency percentiles, abort rates, fast/slow path counts) to this file")
		metricsAddr = fs.String("metrics-addr", "", "serve live metrics (/metrics, /debug/vars, /debug/pprof) on this address while measured runs execute")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	env := bench.Env{
		Options:     bench.Options{Measure: *measure, Warmup: 100 * time.Millisecond, Keys: *keys, Clients: *clients},
		ZipfThreads: *simThreads,
		Sim:         sim.DefaultParams(),
	}
	selected, err := bench.Select(*exp, *skipReal, *skipSim)
	if err == nil {
		env.SimThreads, err = parseCSV(*threadsCSV, strconv.Atoi)
	}
	if err == nil {
		env.RealThreads, err = parseCSV(*realCSV, strconv.Atoi)
	}
	if err == nil {
		env.Zipfs, err = parseCSV(*zipfCSV, func(f string) (float64, error) { return strconv.ParseFloat(f, 64) })
	}
	if err != nil {
		fmt.Fprintln(errw, err)
		return 2
	}

	if *calibrated {
		fmt.Fprintln(out, "calibrating simulator parameters from this host's code ...")
		env.Sim = sim.Calibrate()
	}
	if *metricsAddr != "" {
		// One registry observes every system the sweeps build; the live
		// exporter shows cumulative counters across the whole invocation.
		env.Obs = obs.NewRegistry()
		metrics, addr, err := obs.Serve(*metricsAddr, env.Obs)
		if err != nil {
			fmt.Fprintf(errw, "metrics: %v\n", err)
			return 1
		}
		defer metrics.Close() // shuts the server down and joins it
		fmt.Fprintf(out, "metrics on http://%s/metrics\n", addr)
	}

	report := bench.Report{}
	for _, e := range selected {
		fmt.Fprintf(out, "\n==== %s ====\n", e.Title)
		if err := e.Run(out, env, report); err != nil {
			fmt.Fprintf(errw, "%s: %v\n", e.Title, err)
			return 1
		}
	}
	if *jsonPath != "" {
		if len(report) == 0 {
			fmt.Fprintf(out, "note: -json given but no measured points were produced (all runs skipped?)\n")
		}
		if err := report.WriteJSON(*jsonPath); err != nil {
			fmt.Fprintf(errw, "writing %s: %v\n", *jsonPath, err)
			return 1
		}
		fmt.Fprintf(out, "wrote %s\n", *jsonPath)
	}
	fmt.Fprintln(out)
	return 0
}

// parseCSV parses a comma-separated flag value with parse.
func parseCSV[T any](csv string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(csv, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad list element %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}
