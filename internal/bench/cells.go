package bench

import (
	"fmt"
	"io"
	"os"

	"meerkat"
	"meerkat/internal/workload"
)

// cell is one measured point of a sweep, as data: the system to open, the
// workload to drive it with, and how to label the result. Every sweep of the
// registry is a []cell run through runCell.
type cell struct {
	name string  // row label: the Point's System
	x    float64 // sweep position: the Point's X

	// sys opens one of Table 1's prototypes through NewSystem. When its
	// Kind is empty, cfg opens a Meerkat deployment instead.
	sys SystemConfig
	cfg meerkat.Config

	gen      func() workload.Generator
	clients  int  // closed-loop clients unless Options.Clients overrides
	keys     int  // keyspace when it differs from Options.Keys
	unloaded bool // one synchronous client, whatever Options.Clients says
	durable  bool // log to a throwaway data directory

	// annotate, when set, sees the loaded system before the run and returns
	// the hook that fills the cell's extra column after it.
	annotate func(*meerkatSystem) func(*Point)
}

func (c *cell) open(opts Options) (System, error) {
	if c.sys.Kind != "" {
		c.sys.Obs = opts.Obs
		return NewSystem(c.sys)
	}
	c.cfg.Obs = opts.Obs
	return openMeerkat(c.cfg)
}

// runCell opens the cell's system, loads it, drives it with the closed-loop
// harness and returns the labelled Point. Annotate hooks take their baseline
// after the load: the WAL sweep's bulk-load appends (one per key, fsynced
// inline under SyncAlways) must not count against the measured traffic.
func runCell(c cell, opts Options) (Point, error) {
	if c.durable {
		dir, err := os.MkdirTemp("", "meerkat-bench-wal-")
		if err != nil {
			return Point{}, err
		}
		defer os.RemoveAll(dir)
		c.cfg.Durability.DataDir = dir
	}
	sys, err := c.open(opts)
	if err != nil {
		return Point{}, err
	}
	defer sys.Close()
	clients := c.clients
	switch {
	case c.unloaded:
		clients = 1
	case opts.Clients != 0:
		clients = opts.Clients
	}
	keys := opts.Keys
	if c.keys != 0 {
		keys = c.keys
	}
	preload(sys.Load, keys)
	var finish func(*Point)
	if c.annotate != nil {
		finish = c.annotate(sys.(*meerkatSystem))
	}
	res, err := Run(sys, c.gen, clients, opts)
	if err != nil {
		return Point{}, err
	}
	p := res.Point(c.name, c.x)
	if finish != nil {
		finish(&p)
	}
	return p, nil
}

// column is one extra column of a sweep's table, computed from the points
// measured so far (pts[i] is the row being printed).
type column struct {
	head string
	cell func(pts []Point, i int) string
}

var fastShare = []column{{"fast%", func(pts []Point, i int) string {
	return fmt.Sprintf("%.1f%%", pts[i].Path.FastFraction()*100)
}}}

// sweep runs the cells in order and prints one row per cell: the common
// columns (row, x, goodput, abort %, p50, p99) plus the extra ones. xHead
// names the sweep axis; empty omits the column (rows that differ by
// configuration only).
func sweep(w io.Writer, opts Options, head, xHead string, cells []cell, extra []column) ([]Point, error) {
	fmt.Fprintf(w, "# %s\n%-14s", head, "row")
	if xHead != "" {
		fmt.Fprintf(w, " %8s", xHead)
	}
	fmt.Fprintf(w, " %12s %9s %10s %10s", "goodput", "abort%", "p50", "p99")
	for _, col := range extra {
		fmt.Fprintf(w, " %13s", col.head)
	}
	fmt.Fprintln(w)
	var out []Point
	for _, c := range cells {
		p, err := runCell(c, opts)
		if err != nil {
			return out, err
		}
		out = append(out, p)
		fmt.Fprintf(w, "%-14s", p.System)
		if xHead != "" {
			fmt.Fprintf(w, " %8g", p.X)
		}
		fmt.Fprintf(w, " %12.0f %8.1f%% %10v %10v", p.Goodput, p.AbortRate*100, p.P50, p.P99)
		for _, col := range extra {
			fmt.Fprintf(w, " %13s", col.cell(out, len(out)-1))
		}
		fmt.Fprintln(w)
	}
	return out, nil
}
