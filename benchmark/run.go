package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"meerkat"
	gen "meerkat/internal/workload"
)

// params sizes one run. Everything but seed and dir follows from the
// workload, -seconds and -smoke, so two commits always run the same length.
type params struct {
	wl      *workload
	seed    int64
	clients int // C: client goroutines or sessions
	warmup  time.Duration
	window  time.Duration
	windows int
	setups  int    // how many times set-up is timed; the median is reported
	dir     string // scratch space inside the checkout (WAL data, traces)

	probeKeys  int // key count of the layer probes' stores
	probeScale int // iterations multiplier of the layer probes
}

// config is the workload's deployment, with its data directory under dir.
func (p *params) config() meerkat.Config {
	return p.wl.config(filepath.Join(p.dir, "data-"+p.wl.name), p.seed)
}

// inputs generates the key table and one spec ring per client from the seed.
func (p *params) inputs() (keyTable, [][]spec) {
	keys := newKeyTable(p.wl.keys)
	rings := make([][]spec, p.clients)
	for c := range rings {
		rings[c] = p.wl.newRing(keys, p.seed, c)
	}
	return keys, rings
}

// handle is one driver goroutine's client and its walk through a ring: from
// offset, every stride-th spec, so a session's workers share its ring without
// overlapping.
type handle struct {
	cl                   *meerkat.Client
	ring, offset, stride int
}

// deployment is an open DB with its preloaded keys and ready clients.
type deployment struct {
	db       *meerkat.DB
	sessions []*meerkat.Session
	handles  []handle
}

// deploy is what setup_s times: Open, preload, clients ready.
func (p *params) deploy(keys keyTable) (*deployment, error) {
	cfg := p.config()
	// An in-memory workload has no data directory; RemoveAll("") is a no-op.
	if err := os.RemoveAll(cfg.Durability.DataDir); err != nil {
		return nil, err
	}
	db, err := meerkat.Open(cfg)
	if err != nil {
		return nil, err
	}
	d := &deployment{db: db}
	initial := gen.Value(p.wl.valueSize)
	for _, k := range keys {
		db.Load(k, initial)
	}
	for c := 0; c < p.clients; c++ {
		if p.wl.window == 0 {
			cl, err := db.Client()
			if err != nil {
				d.close()
				return nil, err
			}
			d.handles = append(d.handles, handle{cl: cl, ring: c, stride: 1})
			continue
		}
		s, err := db.Session(meerkat.WithPipeline(p.wl.window))
		if err != nil {
			d.close()
			return nil, err
		}
		d.sessions = append(d.sessions, s)
		for i, cl := range s.Clients() {
			d.handles = append(d.handles, handle{cl: cl, ring: c, offset: i, stride: p.wl.window})
		}
	}
	return d, nil
}

func (d *deployment) close() {
	for _, s := range d.sessions {
		s.Close()
	}
	if len(d.sessions) == 0 {
		for _, h := range d.handles {
			h.cl.Close()
		}
	}
	d.db.Close()
}

// windowStats is what one worker saw in one window (slot 0 is warm-up).
type windowStats struct {
	commits, errors uint64
	ro, rw          hist
}

// worker drives one client through its ring, closed loop.
type worker struct {
	id     int
	cl     *meerkat.Client
	ring   []spec
	next   int
	stride int
	wl     *workload

	cur *spec
	fn  func(*meerkat.Txn) error // bound once; the loop allocates nothing
	win []windowStats
	tr  *workerTrace // nil unless this is the traced pass
}

func (p *params) newWorkers(d *deployment, rings [][]spec, traced bool) []*worker {
	ws := make([]*worker, len(d.handles))
	for i, h := range d.handles {
		w := &worker{
			id: i, cl: h.cl, ring: rings[h.ring], next: h.offset, stride: h.stride,
			wl: p.wl, win: make([]windowStats, p.windows+1),
		}
		w.fn = w.exec
		if traced {
			w.tr = &workerTrace{}
			w.fn = w.execTraced
		}
		ws[i] = w
	}
	return ws
}

// exec builds the current spec inside t. Client.Run commits it.
func (w *worker) exec(t *meerkat.Txn) error {
	s := w.cur
	if w.wl.single {
		if _, err := t.Read(s.gets[0]); err != nil {
			return err
		}
	} else {
		if w.wl.snapshot && s.readOnly() {
			t.ReadOnly()
		}
		if _, err := t.ReadMany(s.gets); err != nil {
			return err
		}
	}
	for _, k := range s.puts {
		t.Write(k, s.value)
	}
	return nil
}

// phase values: 0 is warm-up, 1..n the windows, phaseStop ends the loop.
const phaseStop = -1

// run takes the next spec of the ring through Client.Run. window is read
// once the transaction completes: that is the window it belongs to.
func (w *worker) run(ctx context.Context, window func() int) (s *spec, win int, d time.Duration, err error) {
	s = &w.ring[w.next&(len(w.ring)-1)]
	w.next += w.stride
	w.cur = s
	if w.tr != nil {
		w.tr.begin()
	}
	start := time.Now()
	err = w.cl.Run(ctx, w.fn)
	d = time.Since(start)
	win = window()
	if w.tr != nil {
		w.tr.end(win, s, err)
	}
	return s, win, d, err
}

func (w *worker) loop(phase *atomic.Int32, last int32) {
	ctx := context.Background()
	window := func() int {
		if ph := phase.Load(); ph != phaseStop {
			return int(ph)
		}
		return int(last)
	}
	for phase.Load() != phaseStop {
		s, win, d, err := w.run(ctx, window)
		st := &w.win[win]
		switch {
		case err != nil:
			st.errors++
		case s.readOnly():
			st.commits++
			st.ro.record(d)
		default:
			st.commits++
			st.rw.record(d)
		}
	}
}

// boundary is the process state at a window edge.
type boundary struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
	pauseNs uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeBoundary(at time.Time) boundary {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return boundary{at: at, cpu: processCPU(), mallocs: ms.Mallocs, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// drive runs the workers through a warm-up and n back-to-back windows and
// returns the n+1 window edges. Transactions still in flight at the end count
// towards the last phase.
func drive(ws []*worker, warmup, window time.Duration, n int) []boundary {
	var phase atomic.Int32
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.loop(&phase, int32(n))
		}(w)
	}
	time.Sleep(warmup)
	edges := make([]boundary, 0, n+1)
	for i := 1; i <= n; i++ {
		now := time.Now()
		phase.Store(int32(i))
		edges = append(edges, takeBoundary(now))
		time.Sleep(window)
	}
	now := time.Now()
	phase.Store(phaseStop)
	edges = append(edges, takeBoundary(now))
	wg.Wait()
	return edges
}

// liveHeap is the heap in use after a collection; callers are quiescent.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// totals sums the workers' counts over every phase.
func totals(ws []*worker) (commits, errors uint64) {
	for _, w := range ws {
		for i := range w.win {
			commits += w.win[i].commits
			errors += w.win[i].errors
		}
	}
	return
}

// windowSeries is the per-window value of every end-to-end timing metric.
type windowSeries struct {
	goodput, roP50, rwP50, p99, cpu, allocs []float64
	samples                                 []uint64 // latency samples per window
}

func series(ws []*worker, edges []boundary) windowSeries {
	var s windowSeries
	for i := 0; i+1 < len(edges); i++ {
		var ro, rw hist
		var commits uint64
		for _, w := range ws {
			st := &w.win[i+1]
			commits += st.commits
			ro.merge(&st.ro)
			rw.merge(&st.rw)
		}
		all := ro
		all.merge(&rw)
		dt := edges[i+1].at.Sub(edges[i].at).Seconds()
		n := float64(commits)
		s.goodput = append(s.goodput, n/dt)
		s.roP50 = append(s.roP50, ro.quantile(0.5)/1e3)
		s.rwP50 = append(s.rwP50, rw.quantile(0.5)/1e3)
		s.p99 = append(s.p99, all.quantile(0.99)/1e3)
		s.cpu = append(s.cpu, float64((edges[i+1].cpu-edges[i].cpu).Microseconds())/n)
		s.allocs = append(s.allocs, float64(edges[i+1].mallocs-edges[i].mallocs)/n)
		s.samples = append(s.samples, all.n)
	}
	return s
}

// verifyDurable is the durability gate of a durable workload: read sampled
// keys, close cleanly, re-open the data directory, and require every sampled
// key at its pre-close value. It returns the re-open time and how many keys
// differed. RecoverReplica is deliberately not exercised: its unjoined
// snapshot goroutine is a known ROADMAP blocker.
func (p *params) verifyDurable(d *deployment, keys keyTable) (reopen time.Duration, sampled, bad int, err error) {
	rng := rand.New(rand.NewSource(p.seed))
	sampled = 1024
	if sampled > len(keys) {
		sampled = len(keys)
	}
	picks := rng.Perm(len(keys))[:sampled]
	before := make([][]byte, sampled)
	for i, k := range picks {
		v, err := d.handles[0].cl.GetStrong(keys[k])
		if err != nil {
			return 0, sampled, sampled, fmt.Errorf("pre-close read of %s: %w", keys[k], err)
		}
		before[i] = append([]byte(nil), v...)
	}
	cfg := p.config()
	d.close()
	defer os.RemoveAll(cfg.Durability.DataDir)

	start := time.Now()
	db, err := meerkat.Open(cfg)
	reopen = time.Since(start)
	if err != nil {
		return reopen, sampled, sampled, fmt.Errorf("re-open: %w", err)
	}
	defer db.Close()
	cl, err := db.Client()
	if err != nil {
		return reopen, sampled, sampled, err
	}
	defer cl.Close()
	for i, k := range picks {
		v, err := cl.GetStrong(keys[k])
		if err != nil || !bytes.Equal(v, before[i]) {
			bad++
		}
	}
	return reopen, sampled, bad, nil
}

// closeVerified closes the deployment, through the durability gate when the
// workload is durable, and returns the re-open time (0 otherwise).
func (p *params) closeVerified(r *result, d *deployment, keys keyTable) time.Duration {
	if !p.wl.durable {
		d.close()
		return 0
	}
	reopen, sampled, bad, err := p.verifyDurable(d, keys)
	if err != nil {
		r.notef("durability check: %v", err)
	}
	r.Attempted += uint64(sampled)
	r.Failed += uint64(bad)
	return reopen
}
