package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"meerkat"
	"meerkat/internal/obs"
	"meerkat/internal/wal"
)

// counters is every public counter the per-layer ratios divide. It is read
// while the workers are stopped, so a delta matches the workers' own commit
// count exactly.
type counters struct {
	obs           obs.Snapshot
	sent, dropped uint64
	udp           meerkat.UDPNetStats
	hasUDP        bool
	wal           wal.Stats
}

// quiesce is how long stopped workers' asynchronous commit messages get to
// land before counters are read.
const quiesce = 20 * time.Millisecond

func readCounters(db *meerkat.DB) counters {
	time.Sleep(quiesce)
	a := db.Admin()
	var c counters
	c.sent, _, c.dropped = a.NetworkStats()
	c.udp, c.hasUDP = a.UDPStats()
	c.wal, _ = a.WALStats()
	c.obs = a.Obs().Snapshot()
	return c
}

func gauge(s obs.Snapshot, name string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return float64(g.Value)
		}
	}
	return 0
}

// pass is one fresh deployment driven through a warm-up and one window that
// is split into p.windows equal parts.
type pass struct {
	d       *deployment
	ws      []*worker
	edges   []boundary
	before  counters
	after   counters
	commits uint64 // in the window
}

func (p *params) runPass(keys keyTable, rings [][]spec, traced bool) (*pass, error) {
	d, err := p.deploy(keys)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ps := &pass{d: d, ws: p.newWorkers(d, rings, traced)}
	// The traced pass mirrors the untraced one exactly — same fresh state,
	// same warm-up, same window — so their goodputs differ by the tracing
	// alone.
	drive(ps.ws, p.warmup, 0, 0)
	ps.before = readCounters(d.db)
	ps.edges = drive(ps.ws, 0, p.window/time.Duration(p.windows), p.windows)
	ps.after = readCounters(d.db)
	for _, w := range ps.ws {
		for i := 1; i < len(w.win); i++ {
			ps.commits += w.win[i].commits
		}
	}
	return ps, nil
}

func (ps *pass) goodput() float64 {
	return float64(ps.commits) / ps.edges[len(ps.edges)-1].at.Sub(ps.edges[0].at).Seconds()
}

// commit1c measures one client committing with every queue empty: the median
// commit span (function return to Run return) of n writing specs, run one at
// a time on the traced deployment after its window.
func commit1c(w *worker, n int) float64 {
	ctx := context.Background()
	probe := func() int { return -1 } // outside every window: history only
	spans := make([]int64, 0, n)
	for tries := 0; len(spans) < n && tries < 8*n; tries++ {
		s, _, _, err := w.run(ctx, probe)
		if r := w.tr.runs[len(w.tr.runs)-1]; err == nil && !s.readOnly() && r.count == 1 {
			spans = append(spans, r.end-w.tr.attempts[r.first].ret)
		}
	}
	return exactQuantile(spans, 0.5) / 1e3
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func clamp0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// runLayers measures the per-layer metrics from three sources: deltas of
// public counters over an untraced window, a traced pass (spans, history,
// serializability check), and the layer probes.
func (p *params) runLayers(r *result) error {
	keys, rings := p.inputs()

	// Source (a): counter deltas over the untraced window.
	plain, err := p.runPass(keys, rings, false)
	if err != nil {
		return err
	}
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	r.count(plain.ws)
	shardMap := plain.d.db.Admin().ShardMap()
	reopen := p.closeVerified(r, plain.d, keys)

	// Source (b): the traced pass.
	traced, err := p.runPass(keys, rings, true)
	if err != nil {
		return err
	}
	oneClient := commit1c(traced.ws[0], 2000)
	r.count(traced.ws)
	traced.d.close()
	time.Sleep(quiesce)
	goroutines := runtime.NumGoroutine()
	sum := summarize(traced.ws)
	tracePath := filepath.Join(p.dir, "trace-"+p.wl.name+".json")
	if err := writeTrace(tracePath, traced.ws, p.windows); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	txns, violations := checkHistory(traced.ws, keys, p.wl.valueSize)
	r.Failed += uint64(violations)
	r.notef("traced pass: %d run spans; %s holds the last sub-window's, at most %d per worker; checker replayed %d transactions, %d violations",
		sum.runs, tracePath, traceCap, txns, violations)

	// Source (c): the layer probes, once the passes' garbage is collected so
	// no concurrent mark phase shares the cores with them.
	runtime.GC()
	probes, err := newProber(&workloads[0], p.probeKeys, p.seed, filepath.Join(p.dir, "probe-wal-"+p.wl.name), p.probeScale).run()
	if err != nil {
		return err
	}

	delta := plain.after.obs.Sub(plain.before.obs)
	n := float64(plain.commits)
	cnt := func(c obs.Counter) float64 { return float64(delta.Counter(c)) }
	perTxn := func(name, unit string, count float64) { r.add(name, unit, ratio(count, n)) }
	perKtxn := func(name string, count float64) { r.add(name, "count", 1e3*ratio(count, n)) }
	probe := func(name, unit string) { r.add(name, unit, probes[name]) }

	total := float64(sum.run)
	r.add("meerkat.execute_share", "ratio", ratio(float64(sum.execute), total))
	r.add("meerkat.commit_share", "ratio", ratio(float64(sum.commit), total))
	r.add("meerkat.abort_backoff_share", "ratio", ratio(float64(sum.abortBackoff), total))
	r.add("meerkat.run_self_share", "ratio", ratio(total-float64(sum.execute+sum.commit+sum.abortBackoff), total))
	r.add("meerkat.execute_p50_us", "us", sum.executeP50/1e3)
	r.add("meerkat.commit_p50_us", "us", sum.commitP50/1e3)
	r.add("meerkat.attempts_per_txn", "count", ratio(float64(sum.attempts), float64(sum.runs)))
	r.add("meerkat.abort_frac", "ratio", ratio(float64(sum.attempts-sum.runs), float64(sum.attempts)))
	r.add("meerkat.ro_fastpath_frac", "ratio", ratio(float64(sum.roFast), float64(sum.roSpecs)))
	r.add("meerkat.tracing_overhead_frac", "ratio", 1-ratio(traced.goodput(), plain.goodput()))
	r.add("meerkat.commit_1c_p50_us", "us", oneClient)

	validateRTT := probes["replica.validate_rtt_us"]
	commitSelf := clamp0(oneClient - validateRTT)
	r.add("coordinator.fast_path_frac", "ratio", ratio(cnt(obs.TxnCommitFast), cnt(obs.TxnCommitFast)+cnt(obs.TxnCommitSlow)))
	perKtxn("coordinator.slow_commits_per_ktxn", cnt(obs.TxnCommitSlow))
	perKtxn("coordinator.retries_per_ktxn", cnt(obs.TxnRetry)+cnt(obs.ReadRetry)+cnt(obs.ReadMultiRetry))
	perTxn("coordinator.read_rounds_per_txn", "count", cnt(obs.ReadMultiRound))
	perKtxn("coordinator.ro_fallback_per_ktxn", cnt(obs.ROFallback))
	perKtxn("coordinator.timeouts_per_ktxn", cnt(obs.TxnAbortTimeout))
	perKtxn("coordinator.wrong_shard_per_ktxn", cnt(obs.TxnWrongShard))
	r.add("coordinator.commit_self_us", "us", commitSelf)

	inprocRTT := probes["transport.inproc_rtt_us"]
	occValidate := probes["occ.validate_us"]
	trecordUs := probes["trecord.get_or_create_ns"] / 1e3
	validateSelf := clamp0(validateRTT - inprocRTT - occValidate - trecordUs)
	validates := cnt(obs.ValidateOK) + cnt(obs.ValidateAbort)
	perTxn("replica.validates_per_txn", "count", validates)
	r.add("replica.validate_abort_frac", "ratio", ratio(cnt(obs.ValidateAbort), validates))
	perTxn("replica.commits_applied_per_txn", "count", cnt(obs.CommitApplied))
	perTxn("replica.multireads_per_txn", "count", cnt(obs.MultiReadServed))
	perTxn("replica.snapshot_reads_per_txn", "count", cnt(obs.SnapshotRead))
	probe("replica.validate_rtt_us", "us")
	probe("replica.multiread_rtt_us", "us")
	r.add("replica.validate_self_us", "us", validateSelf)

	msgs, drops := float64(plain.after.sent-plain.before.sent), float64(plain.after.dropped-plain.before.dropped)
	var syscalls, perSyscall float64
	if plain.after.hasUDP {
		a, b := plain.after.udp, plain.before.udp
		msgs, drops = float64(a.Sent-b.Sent), float64(a.Dropped-b.Dropped)
		syscalls = float64(a.Syscalls() - b.Syscalls())
		perSyscall = ratio(msgs, float64(a.SendSyscalls-b.SendSyscalls))
	}
	perTxn("transport.msgs_per_txn", "count", msgs)
	r.add("transport.drops_per_mtxn", "count", 1e6*ratio(drops, n))
	perTxn("transport.syscalls_per_txn", "count", syscalls)
	r.add("transport.datagrams_per_syscall", "count", perSyscall)
	probe("transport.inproc_rtt_us", "us")
	probe("transport.udp_rtt_us", "us")
	probe("transport.sendbatch3_us", "us")

	probe("message.encode_ns", "ns")
	probe("message.decode_ns", "ns")
	probe("message.bytes_per_validate", "B")
	probe("message.allocs_per_roundtrip", "count")
	probe("occ.validate_us", "us")
	probe("occ.apply_commit_us", "us")
	probe("vstore.read_ns", "ns")
	probe("vstore.snapshot_read_ns", "ns")
	probe("vstore.commit_write_ns", "ns")
	r.add("vstore.versions_per_key", "count", ratio(gauge(plain.after.obs, "vstore_versions"), gauge(plain.after.obs, "vstore_keys")))
	probe("trecord.get_or_create_ns", "ns")

	wa, wb := plain.after.wal, plain.before.wal
	perTxn("wal.appends_per_txn", "count", float64(wa.Appends-wb.Appends))
	perTxn("wal.syncs_per_txn", "count", float64(wa.Syncs-wb.Syncs))
	perTxn("wal.bytes_per_txn", "B", float64(wa.BytesWritten-wb.BytesWritten))
	r.add("wal.failures", "count", float64(wa.Failures-wb.Failures))
	probe("wal.append_ns", "ns")
	probe("wal.fsync_us", "us")
	r.add("wal.reopen_s", "s", reopen.Seconds())
	probe("shardmap.lookup_ns", "ns")
	r.add("shardmap.groups_per_txn", "count", groupsPerTxn(rings[0], shardMap))
	probe("obs.inc_ns", "ns")
	probe("obs.observe_ns", "ns")

	first, last := plain.edges[0], plain.edges[p.windows]
	elapsed := last.at.Sub(first.at).Seconds()
	r.add("runtime.gc_cycles", "count", float64(last.gcs-first.gcs))
	r.add("runtime.gc_pause_us_per_s", "us/s", float64(last.pauseNs-first.pauseNs)/1e3/elapsed)
	r.add("runtime.heap_mb_end", "MB", float64(heap.HeapAlloc)/(1<<20))
	sub := series(plain.ws, plain.edges).goodput
	_, spread := medianSpread(sub)
	r.add("harness.window_spread", "ratio", spread)
	r.add("harness.goodput_decay", "ratio", ratio(sub[len(sub)-1], sub[0]))
	r.add("harness.goroutines_after_close", "count", float64(goroutines))
	r.add("harness.loadavg_start", "load", r.Fingerprint.LoadAvg)

	// The budget of one uncontended commit, outside in. coordinator.commit_self
	// is what is left of the one-client commit after the replica round trip,
	// so it also holds whatever this workload's deployment adds to the bare
	// inproc path (wire codec, syscalls, WAL append, cross-shard fan-out).
	parts := commitSelf + inprocRTT + occValidate + trecordUs + validateSelf
	r.notef("budget: commit_1c_p50 %.2f us = coordinator.commit_self %.2f + transport.inproc_rtt %.2f + occ.validate %.2f + trecord.get_or_create %.2f + replica.validate_self %.2f; residual %+.2f us",
		oneClient, commitSelf, inprocRTT, occValidate, trecordUs, validateSelf, oneClient-parts)
	r.notef("under load the commit span's p50 is %.2f us: %.2f us of queueing over the one-client commit",
		sum.commitP50/1e3, sum.commitP50/1e3-oneClient)
	r.notef("untraced %.0f txn/s, traced %.0f txn/s over %.1f s each", plain.goodput(), traced.goodput(), elapsed)
	return nil
}
