package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"testing"
)

// TestMain moves to the repository root, where the benchmark always runs:
// BENCHMARK.json is read from there and benchmark/out written under it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// TestSmoke runs the -smoke configuration of every workload, end-to-end and
// per-layer, and holds the output to BENCHMARK.json: every declared metric
// is emitted, finite and carries its declared unit, and nothing undeclared
// is emitted.
func TestSmoke(t *testing.T) {
	decl, err := loadDeclared()
	if err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, the benchmark's default %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if decl.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, decl.Workloads[i].Name, wl.name)
		}
		wl := wl
		// Workloads run side by side to keep tier-1 short: the test checks
		// names, units and correctness, never a value. The two passes of one
		// workload share ports and a data directory, so they stay serial.
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			for _, pass := range []struct {
				name   string
				trace  bool
				expect []declaredMetric
			}{{"end_to_end", false, decl.EndToEnd}, {"per_layer", true, decl.PerLayer}} {
				t.Run(pass.name, func(t *testing.T) {
					res, err := runOne(&wl, 1, defaultSeconds, pass.trace, true)
					var op *net.OpError
					if errors.As(err, &op) && op.Op == "listen" {
						t.Skipf("cannot bind UDP socket: %v", err)
					}
					if err != nil {
						t.Fatal(err)
					}
					checkResult(t, res, pass.expect)
				})
			}
		})
	}
}

func checkResult(t *testing.T, res *result, expect []declaredMetric) {
	t.Helper()
	if !res.Correct || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d notes=%q", res.Correct, res.Attempted, res.Failed, res.Notes)
	}
	got := make(map[string]metric)
	for _, m := range res.Metrics {
		if _, dup := got[m.Name]; dup {
			t.Errorf("%s emitted twice", m.Name)
		}
		got[m.Name] = m
	}
	for _, want := range expect {
		m, ok := got[want.Name]
		switch {
		case !ok:
			t.Errorf("%s declared but not emitted", want.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v, want a finite value", want.Name, m.Value)
		case m.Unit == "" || m.Unit != want.Unit:
			t.Errorf("%s has unit %q, BENCHMARK.json says %q", want.Name, m.Unit, want.Unit)
		}
		delete(got, want.Name)
	}
	for name := range got {
		t.Errorf("%s emitted but not declared in BENCHMARK.json", name)
	}
}
