package bench

import (
	"fmt"
	"io"
	"time"

	"meerkat"
)

// This file measures the wire-level cost of the transport stack: the same
// Meerkat cluster and Retwis workload over (a) the in-process fabric, (b)
// real loopback UDP forced onto one syscall per datagram, and (c) real UDP
// with the batched sendmmsg/recvmmsg path, with and without pipelined client
// sessions keeping the rings full. The figure of merit is socket syscalls
// per committed transaction — the coordination the batched transport
// amortizes away — alongside goodput, which should close most of the gap to
// the kernel-bypass-class inproc reference.

// UDPOptions parameterizes the UDP transport sweep beyond the shared
// Options.
type UDPOptions struct {
	Options
	// Window is the pipeline width of the session rows (in-flight
	// transactions per socket set). Default 16.
	Window int
	// FlushDelay holds buffered datagrams up to this long waiting to share
	// a sendmmsg (micro-Nagle) in the pipelined row. Default 20µs — about
	// one round-trip of slack, enough for concurrent workers' messages to
	// meet in one syscall without moving the latency percentiles.
	FlushDelay time.Duration
	// BasePort places the throwaway UDP port maps; each row uses its own
	// stride so a row's lingering sockets can never collide with the next.
	// Default 27000.
	BasePort int
}

func (o *UDPOptions) fill() {
	o.Options.fill()
	if o.Window == 0 {
		o.Window = 16
	}
	if o.FlushDelay == 0 {
		o.FlushDelay = 20 * time.Microsecond
	}
	if o.BasePort == 0 {
		o.BasePort = 27000
	}
	if o.Clients == 0 {
		// Equal closed-loop client counts across rows keep the comparison
		// honest; the pipelined row reaches the same total via sessions of
		// Window workers each.
		o.Clients = 16
	}
}

// UDPSweep measures the transport comparison and returns one Point per row.
// Rows that cannot bind sockets (sandboxes without loopback UDP) are
// reported and skipped rather than failing the sweep.
func UDPSweep(w io.Writer, opts UDPOptions) ([]Point, error) {
	opts.fill()
	rows := []struct {
		name   string
		window int
		cfg    meerkat.Config
	}{
		{"inproc", 1, meerkat.Config{}},
		{"udp-unbatched", 1, meerkat.Config{
			Transport: meerkat.TransportUDP, UDPNoBatch: true,
		}},
		{"udp-batched", 1, meerkat.Config{
			Transport: meerkat.TransportUDP,
		}},
		{"udp-pipelined", opts.Window, meerkat.Config{
			Transport: meerkat.TransportUDP, UDPFlushDelay: opts.FlushDelay,
		}},
	}
	fmt.Fprintf(w, "# retwis uniform, %d closed-loop clients: transport stack comparison\n", opts.Clients)
	fmt.Fprintf(w, "%-14s %7s %12s %9s %10s %10s %13s %11s\n",
		"transport", "window", "goodput", "abort%", "p50", "p99", "syscalls/txn", "dgrams/call")
	var out []Point
	port := opts.BasePort
	for _, row := range rows {
		cfg := row.cfg
		if cfg.Transport == meerkat.TransportUDP {
			cfg.UDPBasePort = port
			port += 1024 // fresh port stride per UDP row
		}
		p, err := runUDPPoint(row.name, cfg, row.window, opts)
		if err != nil {
			if cfg.Transport == meerkat.TransportUDP {
				fmt.Fprintf(w, "%-14s skipped: %v\n", row.name, err)
				continue
			}
			return out, err
		}
		out = append(out, p)
		fmt.Fprintf(w, "%-14s %7d %12.0f %8.1f%% %10v %10v %13.2f %11.2f\n",
			p.System, row.window, p.Goodput, p.AbortRate*100, p.P50, p.P99,
			p.SyscallsPerTxn, p.DatagramsPerSyscall)
	}
	return out, nil
}

// runUDPPoint opens a deployment per cfg, drives it with the closed-loop
// harness, and annotates the Point with the syscall counters the run cost.
func runUDPPoint(name string, cfg meerkat.Config, window int, opts UDPOptions) (Point, error) {
	cfg.Obs = opts.Obs
	sys, err := openMeerkat(name, cfg, window)
	if err != nil {
		return Point{}, err
	}
	defer sys.Close()
	res, err := Run(RunConfig{
		System:       sys,
		NewGenerator: genFactory("retwis", opts.Keys, 0),
		Clients:      opts.Clients,
		Keys:         opts.Keys,
		Warmup:       opts.Warmup,
		Measure:      opts.Measure,
		Seed:         opts.Seed,
	})
	if err != nil {
		return Point{}, err
	}
	p := res.Point(name, float64(window))
	// Syscall counters cover the whole run (warmup included), so divide by
	// all commits the clients saw, not just the measured window's.
	if net, ok := sys.db.Admin().UDPStats(); ok {
		if committed := sys.committed(); committed > 0 {
			p.SyscallsPerTxn = float64(net.Syscalls()) / float64(committed)
		}
		if net.SendSyscalls > 0 {
			p.DatagramsPerSyscall = float64(net.Sent) / float64(net.SendSyscalls)
		}
	}
	return p, nil
}
