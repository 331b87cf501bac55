package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// runRecord is one child run as the result file stores it: its detail line
// and its contract line, merged.
type runRecord struct {
	wireDetail
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// resultFile is what suite mode writes and -compare reads.
type resultFile struct {
	Runs []runRecord `json:"runs"`
}

// parseRun reads a child's standard output: the detail line and the
// contract's last line.
func parseRun(out []byte) (runRecord, error) {
	var rec runRecord
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, detailPrefix) {
			if err := json.Unmarshal([]byte(line[len(detailPrefix):]), &rec.wireDetail); err != nil {
				return rec, fmt.Errorf("detail line: %w", err)
			}
		}
		if line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &rec); err != nil {
		return rec, fmt.Errorf("result line %q: %w", last, err)
	}
	return rec, nil
}

// suiteMain runs every workload, end-to-end and per-layer, each run in a
// process of its own so heap state never leaks between workloads, and writes
// one result file. It returns the exit code.
func suiteMain(seed int64, seconds, runs int, smoke bool, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var file resultFile
	code := 0
	for _, wl := range workloads {
		for run := 0; run < runs; run++ {
			for trace := 0; trace <= 1; trace++ {
				args := []string{
					"-workload", wl.name, "-seed", fmt.Sprint(seed + int64(run)),
					"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace),
				}
				if smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				os.Stdout.Write(stdout)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s trace=%d: %v\n", wl.name, trace, err)
					code = 1
				}
				rec, perr := parseRun(stdout)
				if perr != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s trace=%d: %v\n", wl.name, trace, perr)
					code = 1
					continue
				}
				file.Runs = append(file.Runs, rec)
			}
		}
	}
	if out == "" {
		dir, err := outDir()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		out = filepath.Join(dir, fmt.Sprintf("result-seed%d.json", seed))
	}
	b, _ := json.MarshalIndent(file, "", " ")
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("# results written to %s\n", out)
	return code
}

// declared is the part of BENCHMARK.json that -compare and the tests read.
type declared struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDeclared() (*declared, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("%w: run from the repository root", err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// side is one result file's view of one (workload, metric): the median over
// its runs and the spread that decides whether a difference is resolvable —
// across runs when there are at least four, else the widest spread across a
// run's own windows.
func side(f *resultFile, workload, name string) (median, spread float64, n int) {
	var vals []float64
	var windowSpread float64
	for _, r := range f.Runs {
		m, ok := r.Metrics[name]
		if r.Workload != workload || r.Trace != 0 || !ok {
			continue
		}
		vals = append(vals, m.Value)
		windowSpread = math.Max(windowSpread, r.Spread[name])
	}
	if len(vals) == 0 {
		return math.NaN(), math.NaN(), 0
	}
	median, spread = medianSpread(vals)
	if len(vals) < 4 {
		spread = windowSpread
	}
	return median, spread, len(vals)
}

// compareMain prints, per (workload, end-to-end metric), how much worse B's
// median is than A's against the bound in BENCHMARK.json. A pair whose
// spread exceeds the bound is unresolved, not a pass. It returns 1 when any
// resolved pair is past its bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
		return 2
	}
	decl, err := loadDeclared()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var files [2]resultFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
			return 2
		}
	}
	fmt.Printf("%-18s %-20s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	code := 0
	for _, wl := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			a, sa, na := side(&files[0], wl.Name, m.Name)
			b, sb, nb := side(&files[1], wl.Name, m.Name)
			if na == 0 || nb == 0 {
				fmt.Printf("%-18s %-20s missing from one side\n", wl.Name, m.Name)
				code = 1
				continue
			}
			worse := (b - a) / math.Abs(a)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := math.Max(sa, sb)
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Printf("%-18s %-20s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s (n=%d,%d)\n",
				wl.Name, m.Name, a, b, 100*worse, 100*spread, 100*m.Bound, verdict, na, nb)
		}
	}
	return code
}
