package bench

import (
	"fmt"
	"io"

	"meerkat/internal/workload"
)

// This file measures what the typed commutative operations buy under
// contention: the same hot-counter workload swept across Zipf skew, once as
// the classic OCC read-modify-write (read the counter, write value+1 back)
// and once as a server-side Increment op. The RMW rows abort whenever two
// clients race on a hot key; the op rows carry no read version, so the
// replicas merge concurrent bumps at their commit timestamps and the abort
// rate stays near zero no matter how skewed the key popularity gets.

// OpsZipfOptions parameterizes the skew sweep beyond the shared Options.
type OpsZipfOptions struct {
	Options
	// Thetas overrides the swept Zipf coefficients. Defaults to the
	// contention ladder 0.5, 0.7, 0.9, 0.95, 0.99.
	Thetas []float64
}

// OpsZipfSweep measures RMW-via-Put versus RMW-via-Increment across Zipf skew
// on the Meerkat system and returns two Points per theta, X carrying the
// coefficient.
func OpsZipfSweep(w io.Writer, opts OpsZipfOptions) ([]Point, error) {
	opts.Options.fill()
	if opts.Clients == 0 {
		opts.Clients = 128
	}
	if len(opts.Thetas) == 0 {
		opts.Thetas = []float64{0.5, 0.7, 0.9, 0.95, 0.99}
	}
	// A small keyspace keeps the Zipf head genuinely hot at the default
	// client count — the point is contention on the head, not I/O volume.
	if opts.Keys > 256 {
		opts.Keys = 256
	}
	fmt.Fprintf(w, "# hot-counter workload, %d closed-loop clients, %d keys: RMW write-back vs server-side increment across Zipf skew\n",
		opts.Clients, opts.Keys)
	fmt.Fprintf(w, "%-14s %6s %12s %9s %10s %10s\n",
		"row", "theta", "goodput", "abort%", "p50", "p99")
	var out []Point
	for _, theta := range opts.Thetas {
		for _, viaOp := range []bool{false, true} {
			p, err := runZipfPoint(theta, viaOp, opts)
			if err != nil {
				return out, err
			}
			out = append(out, p)
			fmt.Fprintf(w, "%-14s %6.2f %12.0f %8.1f%% %10v %10v\n",
				p.System, theta, p.Goodput, p.AbortRate*100, p.P50, p.P99)
		}
	}
	return out, nil
}

// runZipfPoint measures one (theta, encoding) cell on a fresh cluster.
func runZipfPoint(theta float64, viaOp bool, opts OpsZipfOptions) (Point, error) {
	sys, err := NewSystem(SystemConfig{Kind: SystemMeerkat, Obs: opts.Obs})
	if err != nil {
		return Point{}, err
	}
	defer sys.Close()
	name := "rmw-put"
	if viaOp {
		name = "incr-op"
	}
	res, err := Run(RunConfig{
		System: sys,
		NewGenerator: func() workload.Generator {
			return workload.NewCounter(workload.NewChooser(opts.Keys, theta), viaOp)
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
	return res.Point(name, theta), nil
}
