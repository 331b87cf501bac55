package bench

import (
	"fmt"
	"io"

	"meerkat/internal/workload"
)

// This file measures what the read-only fast path buys on read-heavy
// Retwis: the same re-weighted mix (80/95/100% pure-read timeline loads)
// run twice per read fraction, once with the fast path ablated
// (DisableReadOnlyFastPath — every transaction pays the validation round,
// the two-round baseline) and once with marked read-only transactions
// committing locally off their snapshot reads. The one-round rows also
// report how many commits actually took the fast path, so a confirmation
// shortfall (retries, demotions) is visible rather than silently priced in.

// ROOptions parameterizes the read-fraction sweep beyond the shared
// Options.
type ROOptions struct {
	Options
	// ReadFracs overrides the swept pure-read transaction fractions.
	// Defaults to 0.80, 0.95, 1.00.
	ReadFracs []float64
}

// ROSweep measures the two-round validated baseline versus the one-round
// read-only fast path across Retwis read fractions on the Meerkat system
// and returns two Points per fraction, X carrying the read fraction.
func ROSweep(w io.Writer, opts ROOptions) ([]Point, error) {
	opts.Options.fill()
	if opts.Clients == 0 {
		opts.Clients = 64
	}
	if len(opts.ReadFracs) == 0 {
		opts.ReadFracs = []float64{0.80, 0.95, 1.00}
	}
	fmt.Fprintf(w, "# retwis re-weighted by read fraction, %d closed-loop clients, %d keys: validated two-round commit vs read-only one-round fast path\n",
		opts.Clients, opts.Keys)
	fmt.Fprintf(w, "%-10s %6s %12s %9s %10s %10s %8s\n",
		"row", "read%", "goodput", "abort%", "p50", "p99", "ro-share")
	var out []Point
	for _, frac := range opts.ReadFracs {
		for _, disable := range []bool{true, false} {
			p, err := runROPoint(frac, disable, opts)
			if err != nil {
				return out, err
			}
			out = append(out, p)
			roShare := "-"
			if !disable {
				total := p.Path.ROCommits + p.Path.FastCommits + p.Path.SlowCommits
				if total > 0 {
					roShare = fmt.Sprintf("%.0f%%", 100*float64(p.Path.ROCommits)/float64(total))
				}
			}
			fmt.Fprintf(w, "%-10s %5.0f%% %12.0f %8.1f%% %10v %10v %8s\n",
				p.System, frac*100, p.Goodput, p.AbortRate*100, p.P50, p.P99, roShare)
		}
	}
	return out, nil
}

// runROPoint measures one (read fraction, path) cell on a fresh cluster.
func runROPoint(frac float64, disableFastPath bool, opts ROOptions) (Point, error) {
	sys, err := NewSystem(SystemConfig{
		Kind:                    SystemMeerkat,
		Obs:                     opts.Obs,
		DisableReadOnlyFastPath: disableFastPath,
	})
	if err != nil {
		return Point{}, err
	}
	defer sys.Close()
	name := "one-round"
	if disableFastPath {
		name = "two-round"
	}
	res, err := Run(RunConfig{
		System: sys,
		NewGenerator: func() workload.Generator {
			return workload.NewRetwisMix(workload.NewChooser(opts.Keys, 0.75), frac)
		},
		Clients: opts.Clients,
		Keys:    opts.Keys,
		Warmup:  opts.Warmup,
		Measure: opts.Measure,
		Seed:    opts.Seed,
	})
	if err != nil {
		return Point{}, err
	}
	return res.Point(name, frac), nil
}
