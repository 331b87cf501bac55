package bench

import (
	"io"
	"strings"
	"testing"
	"time"

	"meerkat/internal/workload"
)

func smokeRun(t *testing.T, kind SystemKind) Result {
	t.Helper()
	sys, err := NewSystem(SystemConfig{Kind: kind, Cores: 2})
	if err != nil {
		t.Fatalf("NewSystem(%s): %v", kind, err)
	}
	defer sys.Close()
	preload(sys.Load, 1024)
	res, err := Run(sys, genFactory("ycsb-t", 1024, 0), 4, Options{Warmup: 20 * time.Millisecond, Measure: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("Run(%s): %v", kind, err)
	}
	return res
}

func TestAllSystemsCommitWork(t *testing.T) {
	for _, kind := range AllSystems {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			res := smokeRun(t, kind)
			if res.Counters.Committed == 0 {
				t.Fatalf("%s committed nothing: %+v", kind, res.Counters)
			}
			if res.Counters.Errors > res.Counters.Committed/10 {
				t.Fatalf("%s error rate too high: %+v", kind, res.Counters)
			}
			if res.Goodput() <= 0 {
				t.Fatalf("%s goodput %f", kind, res.Goodput())
			}
			if res.Latency.Count() == 0 {
				t.Fatalf("%s recorded no latencies", kind)
			}
		})
	}
}

func TestRetwisWorkloadRuns(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Kind: SystemMeerkat, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	preload(sys.Load, 2048)
	res, err := Run(sys, genFactory("retwis", 2048, 0.6), 4, Options{Warmup: 20 * time.Millisecond, Measure: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Committed == 0 {
		t.Fatalf("retwis committed nothing: %+v", res.Counters)
	}
}

func TestHighContentionAbortsRise(t *testing.T) {
	// The qualitative core of Figure 7: Meerkat's abort rate at theta=0.95
	// on a small keyspace must exceed its uniform abort rate.
	measure := func(theta float64) float64 {
		sys, err := NewSystem(SystemConfig{Kind: SystemMeerkat, Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		preload(sys.Load, 512)
		res, err := Run(sys, genFactory("ycsb-t", 512, theta), 8, Options{Warmup: 20 * time.Millisecond, Measure: 150 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return res.AbortRate()
	}
	low, high := measure(0), measure(0.95)
	if high <= low {
		t.Fatalf("abort rate did not rise with contention: uniform %.3f, zipf0.95 %.3f", low, high)
	}
}

func TestFig1InprocSmoke(t *testing.T) {
	r, err := RunFig1(Fig1Config{
		Transport:     Fig1Inproc,
		ServerThreads: 2,
		Clients:       4,
		Measure:       100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Puts == 0 {
		t.Fatal("no PUTs completed")
	}
	if r.Transport != "erpc" {
		t.Fatalf("transport label %q", r.Transport)
	}
}

func TestFig1UDPSmoke(t *testing.T) {
	r, err := RunFig1(Fig1Config{
		Transport:     Fig1UDP,
		ServerThreads: 2,
		Clients:       2,
		Measure:       100 * time.Millisecond,
		UDPBasePort:   33000,
	})
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	if r.Puts == 0 {
		t.Fatal("no PUTs completed over UDP")
	}
}

func TestFig1CounterConfig(t *testing.T) {
	r, err := RunFig1(Fig1Config{
		Transport:     Fig1Inproc,
		ServerThreads: 2,
		Clients:       4,
		SharedCounter: true,
		Measure:       50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.SharedCounter || r.Puts == 0 {
		t.Fatalf("result %+v", r)
	}
}

func TestTablePrinters(t *testing.T) {
	var b strings.Builder
	Table1(&b)
	if !strings.Contains(b.String(), "meerkat-pb") {
		t.Fatal("Table1 missing rows")
	}
	b.Reset()
	Table2(&b, 20000)
	out := b.String()
	for _, kind := range []string{"add-user", "follow-unfollow", "post-tweet", "load-timeline"} {
		if !strings.Contains(out, kind) {
			t.Fatalf("Table2 missing %s:\n%s", kind, out)
		}
	}
}

func TestZipfSweepTiny(t *testing.T) {
	opts := Options{
		Measure: 60 * time.Millisecond,
		Warmup:  20 * time.Millisecond,
		Keys:    512,
		Clients: 4,
	}
	cells := zipfCells("ycsb-t")(Env{Options: opts, Zipfs: []float64{0, 0.9}, ZipfThreads: 2})
	pts, err := sweep(io.Discard, opts, "tiny", "zipf", cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.Goodput <= 0 {
			t.Fatalf("zero goodput: %+v", p)
		}
	}
}

func TestThreadSweepTiny(t *testing.T) {
	opts := Options{
		Measure: 50 * time.Millisecond,
		Warmup:  10 * time.Millisecond,
		Keys:    512,
		Clients: 2,
	}
	cells := threadCells("ycsb-t")(Env{Options: opts, RealThreads: []int{1}})
	pts, err := sweep(io.Discard, opts, "tiny", "threads", cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(AllSystems) {
		t.Fatalf("got %d points", len(pts))
	}
}

func TestExecSpecShapes(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Kind: SystemMeerkat, Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Load(workload.KeyName(0), []byte("v"))
	sys.Load(workload.KeyName(1), []byte("v"))
	cl, err := sys.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	spec := workload.TxnSpec{
		Reads:  []string{workload.KeyName(0)},
		RMWs:   []string{workload.KeyName(1)},
		Writes: []string{workload.KeyName(2)},
	}
	var gets []string
	txn := cl.Begin()
	if err := execSpec(txn, &spec, []byte("x"), &gets); err != nil {
		t.Fatalf("execSpec: %v", err)
	}
	if ok, err := txn.Commit(); err != nil || !ok {
		t.Fatalf("commit: %v %v", ok, err)
	}
	// The scratch holds the assembled read set (reads then RMW reads).
	if len(gets) != 2 || gets[0] != workload.KeyName(0) || gets[1] != workload.KeyName(1) {
		t.Fatalf("gets scratch = %v", gets)
	}
}
