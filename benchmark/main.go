// Command benchmark is the repository's one standing benchmark: four
// closed-loop workloads, eight end-to-end metrics and an outside-in layer
// budget, declared in BENCHMARK.json at the repository root. See README.md in
// this directory for why each workload and metric exists and how to read the
// output.
//
//	go run ./benchmark -seed 1                       every workload, both passes
//	go run ./benchmark -workload retwis -trace 0     one end-to-end run
//	go run ./benchmark -workload retwis -trace 1     one per-layer run
//	go run ./benchmark -compare A.json B.json        verdict per (workload, metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: five windows of a fifth
// of it each.
const defaultSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs every workload, end-to-end and per-layer")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Int("seconds", defaultSeconds, "seconds measured per run (five windows)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from counters, a traced pass and layer probes")
		smoke   = flag.Bool("smoke", false, "tiny configuration for tests: 2000 keys, 300 ms windows")
		runs    = flag.Int("runs", 1, "suite mode: runs per workload, on seeds seed, seed+1, ...")
		out     = flag.String("out", "", "suite mode: write the results here (default benchmark/out/result-seed<N>.json)")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	switch {
	case *compare:
		os.Exit(compareMain(flag.Args()))
	case *name == "":
		os.Exit(suiteMain(*seed, *seconds, *runs, *smoke, *out))
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	res, err := runOne(wl, *seed, *seconds, *trace == 1, *smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// outDir is the benchmark's scratch space, inside the checkout. Every mode
// runs from the repository root.
func outDir() (string, error) {
	dir := filepath.Join("benchmark", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// newParams sizes a run of wl.
func newParams(wl *workload, seed int64, seconds int, trace, smoke bool) (*params, error) {
	dir, err := outDir()
	if err != nil {
		return nil, err
	}
	c := runtime.NumCPU()
	if c > 4 {
		c = 4
	}
	p := &params{
		wl: wl, seed: seed, clients: c, dir: dir,
		warmup: 3 * time.Second, windows: 5, setups: 3,
		window:    time.Duration(seconds) * time.Second / 5,
		probeKeys: workloads[0].keys, probeScale: 10,
	}
	if trace {
		// Two passes and the probes share the run's time budget.
		p.warmup = 2 * time.Second
	}
	if smoke {
		small := *wl
		small.keys = smokeKeys
		p.wl = &small
		p.warmup, p.window, p.setups = 100*time.Millisecond, 300*time.Millisecond, 1
		p.probeKeys, p.probeScale = smokeKeys, 1
	}
	return p, nil
}

// fingerprint identifies the host and the run; it rides in every result.
type fingerprint struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	WindowS    float64 `json:"window_s"`
	LoadAvg    float64 `json:"loadavg_start"`
}

func utsString(f [65]int8) string {
	var b strings.Builder
	for _, c := range f {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var one float64
	fmt.Sscan(string(b), &one)
	return one
}

func (p *params) fingerprint() fingerprint {
	fp := fingerprint{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", Commit: "unknown",
		Seed: p.seed, Clients: p.clients, WindowS: p.window.Seconds(), LoadAvg: loadAvg(),
	}
	var uts syscall.Utsname
	if syscall.Uname(&uts) == nil {
		fp.Kernel = utsString(uts.Release)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// metric is one named measurement. Spread is the inter-quartile range of the
// per-window values as a share of their median; NaN when the metric is a
// single number.
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Spread  float64
	Windows []float64
}

// result is one run of one workload.
type result struct {
	Workload    string
	Trace       bool
	Fingerprint fingerprint
	Correct     bool
	Attempted   uint64
	Failed      uint64
	Metrics     []metric
	Notes       []string
}

func (r *result) add(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, Spread: math.NaN()})
}

func (r *result) addWindows(name, unit string, windows []float64) {
	m, s := medianSpread(windows)
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: m, Spread: s, Windows: windows})
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// finite replaces a NaN or infinite value (a ratio with an empty
// denominator) by 0, which JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireDetail is the line before the contract line: what -compare and the
// suite need beyond the contract's four keys.
type wireDetail struct {
	Workload    string               `json:"workload"`
	Trace       int                  `json:"trace"`
	Fingerprint fingerprint          `json:"fingerprint"`
	Spread      map[string]float64   `json:"spread"`
	Windows     map[string][]float64 `json:"windows"`
}

const detailPrefix = "detail "

// print writes the human table, the detail line and, last, the contract's
// JSON object.
func (r *result) print(w *os.File) {
	fp := r.Fingerprint
	fmt.Fprintf(w, "# %s  trace=%v  seed=%d  C=%d  window=%.1fs  nproc=%d GOMAXPROCS=%d %s kernel=%s commit=%s loadavg=%.2f\n",
		r.Workload, r.Trace, fp.Seed, fp.Clients, fp.WindowS, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.Kernel, fp.Commit, fp.LoadAvg)
	if fp.LoadAvg > 0.5 {
		fmt.Fprintf(w, "# WARNING: load average %.2f at start: a noisy neighbour makes this run unresolved, not a regression\n", fp.LoadAvg)
	}
	detail := wireDetail{Workload: r.Workload, Fingerprint: fp, Spread: map[string]float64{}, Windows: map[string][]float64{}}
	if r.Trace {
		detail.Trace = 1
	}
	metrics := make(map[string]wireMetric, len(r.Metrics))
	for _, m := range r.Metrics {
		spread := ""
		if !math.IsNaN(m.Spread) {
			spread = fmt.Sprintf("  ±%.1f%% IQR over %d windows", 100*m.Spread, len(m.Windows))
			detail.Spread[m.Name] = finite(m.Spread)
			detail.Windows[m.Name] = m.Windows
		}
		fmt.Fprintf(w, "%-34s %14.4f %-6s%s\n", m.Name, m.Value, m.Unit, spread)
		metrics[m.Name] = wireMetric{Value: finite(m.Value), Unit: m.Unit}
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "#", n)
	}
	if b, err := json.Marshal(detail); err == nil {
		fmt.Fprintf(w, "%s%s\n", detailPrefix, b)
	}
	b, _ := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	fmt.Fprintf(w, "%s\n", b)
}

// count adds the workers' transactions to the run's attempted and failed
// operations.
func (r *result) count(ws []*worker) (commits, errors uint64) {
	commits, errors = totals(ws)
	r.Attempted += commits + errors
	r.Failed += errors
	return commits, errors
}

// runOne runs one workload once: the end-to-end pass, or the per-layer one.
func runOne(wl *workload, seed int64, seconds int, trace, smoke bool) (*result, error) {
	p, err := newParams(wl, seed, seconds, trace, smoke)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: wl.name, Trace: trace, Fingerprint: p.fingerprint()}
	if trace {
		err = p.runLayers(r)
	} else {
		err = p.runEndToEnd(r)
	}
	if err != nil {
		return nil, err
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// runEndToEnd measures the eight end-to-end metrics, tracing off: set-up
// several times, one warm-up, five back-to-back windows.
func (p *params) runEndToEnd(r *result) error {
	keys, rings := p.inputs()
	var d *deployment
	var setups []float64
	for i := 0; i < p.setups; i++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if d, err = p.deploy(keys); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ws := p.newWorkers(d, rings, false)
	heapStart := liveHeap()
	edges := drive(ws, p.warmup, p.window, p.windows)
	heapEnd := liveHeap()
	commits, errors := r.count(ws)
	p.closeVerified(r, d, keys)

	s := series(ws, edges)
	setup, _ := medianSpread(setups)
	r.add("setup_s", "s", setup)
	r.addWindows("goodput_tps", "txn/s", s.goodput)
	r.addWindows("ro_p50_us", "us", s.roP50)
	r.addWindows("rw_p50_us", "us", s.rwP50)
	r.addWindows("txn_p99_us", "us", s.p99)
	r.addWindows("cpu_us_per_txn", "us", s.cpu)
	r.addWindows("allocs_per_txn", "count", s.allocs)
	r.add("retained_b_per_txn", "B", (float64(heapEnd)-float64(heapStart))/float64(commits))

	least := s.samples[0]
	for _, n := range s.samples {
		if n < least {
			least = n
		}
	}
	r.notef("set-up times %.3v s; %d transactions, %d failed; smallest window holds %d latency samples, %d beyond its p99",
		setups, commits, errors, least, least/100)
	return nil
}
