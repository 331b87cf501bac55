package bench

import (
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"meerkat/internal/sim"
)

// TestExperimentsSmoke runs every registry entry at a tiny size: measured
// entries must yield at least one point with non-zero goodput, the others
// none; entries are unique per (name, measured); and both the generated -exp
// usage and EXPERIMENTS.md's "Reproducing" name every one of them.
func TestExperimentsSmoke(t *testing.T) {
	env := Env{
		Options:     Options{Measure: 60 * time.Millisecond, Warmup: 20 * time.Millisecond, Keys: 512, Clients: 4},
		SimThreads:  []int{2},
		RealThreads: []int{1},
		Zipfs:       []float64{0.9},
		ZipfThreads: 2,
		Sim:         sim.DefaultParams(),
		timeline: timelineSize{
			Clients: 4, Keys: 256, Seed: 3, Interval: 100 * time.Millisecond, Tail: 2,
			CrashAt: 4000, RestartAt: 8000,
		},
	}
	type id struct {
		name     string
		measured bool
	}
	seen := map[id]bool{}
	usage := "|" + strings.ReplaceAll(Usage(), "*", "") + "|"
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for i := range Experiments {
		e := &Experiments[i]
		if seen[id{e.Name, e.Measured}] {
			t.Errorf("duplicate entry %s (measured=%v)", e.Name, e.Measured)
		}
		seen[id{e.Name, e.Measured}] = true
		for _, name := range []string{e.Name, e.Alias} {
			if name == "" {
				continue
			}
			if !strings.Contains(usage, "|"+name+"|") {
				t.Errorf("usage %q does not name %s", usage, name)
			}
			if !strings.Contains(string(doc), "`"+name+"`") {
				t.Errorf("EXPERIMENTS.md does not name `%s`", name)
			}
		}
		t.Run(e.Title, func(t *testing.T) {
			rep := Report{}
			if err := e.Run(io.Discard, env, rep); err != nil {
				if e.Name == "fig1" {
					t.Skipf("UDP unavailable: %v", err) // as TestFig1UDPSmoke
				}
				t.Fatal(err)
			}
			live := 0
			for _, pts := range rep {
				for _, p := range pts {
					if p.Goodput > 0 {
						live++
					}
				}
			}
			if want := e.Measured && e.Name != "calibrate"; want != (live > 0) {
				t.Fatalf("measured=%v but %d points with non-zero goodput: %+v", e.Measured, live, rep)
			}
		})
	}
}

// TestSelect pins the one selector behind -exp, -skip-real and -skip-sim.
func TestSelect(t *testing.T) {
	names := func(exp string, skipReal, skipSim bool) string {
		t.Helper()
		sel, err := Select(exp, skipReal, skipSim)
		if err != nil {
			t.Fatalf("Select(%q): %v", exp, err)
		}
		var out []string
		for _, e := range sel {
			if e.Measured {
				out = append(out, e.Name+"/measured")
			} else {
				out = append(out, e.Name)
			}
		}
		return strings.Join(out, " ")
	}
	all := names("all", false, false)
	for _, explicit := range []string{"calibrate", "wal", "zipf"} {
		if strings.Contains(all, explicit) {
			t.Errorf("all selects explicit-only %s: %s", explicit, all)
		}
	}
	if got := names("all", true, false); got == "" || strings.Contains(got, "measured") {
		t.Errorf("all -skip-real = %q, want only unmeasured entries", got)
	}
	for _, e := range strings.Fields(names("all", false, true)) {
		if !strings.HasSuffix(e, "/measured") {
			t.Errorf("all -skip-sim selects unmeasured %s", e)
		}
	}
	for exp, want := range map[string]string{
		"fig4":        "fig4 fig4/measured",
		"fig7a":       "fig6a fig6a/measured",
		"zipf, wal":   "wal/measured zipf/measured",
		"wal":         "wal/measured",
		"table1,fig5": "table1 fig5 fig5/measured",
	} {
		if got := names(exp, false, false); got != want {
			t.Errorf("Select(%q) = %q, want %q", exp, got, want)
		}
	}
	if got := names("fig4,calibrate", true, false); got != "fig4" {
		t.Errorf("fig4,calibrate -skip-real = %q, want fig4", got)
	}
	for _, bad := range []string{"", "fig4,", "nope", "ALL", "udp", "ro", "shard", "split"} {
		if _, err := Select(bad, false, false); err == nil {
			t.Errorf("Select(%q) accepted", bad)
		}
	}
}
