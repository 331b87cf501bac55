package obs

import (
	"sync"
	"testing"
	"time"
)

// TestRecordPathZeroAllocs is the gate the whole subsystem hangs on: the
// record path must never allocate, so instrumentation cannot re-introduce
// the hot-path allocation overhead PR 1 removed.
func TestRecordPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	s := r.NewShard()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Inc(TxnCommitFast)
		s.Inc(TxnCommitMultiShard)
		s.Add(ValidateOK, 3)
		s.Observe(HistCommit, 123*time.Microsecond)
		s.Observe(HistValidateRound, 45*time.Microsecond)
		s.Observe(HistReadRound, 30*time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %v allocs/op, want 0", allocs)
	}

	// The nil (un-instrumented) path must be free too.
	var nilShard *Shard
	allocs = testing.AllocsPerRun(1000, func() {
		nilShard.Inc(TxnCommitFast)
		nilShard.Add(ValidateOK, 3)
		nilShard.Observe(HistCommit, time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("nil-shard record path allocates %v allocs/op, want 0", allocs)
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	s := r.NewShard()
	if s != nil {
		t.Fatal("nil registry must hand out nil shards")
	}
	r.RegisterGauge("x", func() uint64 { return 1 })
	snap := r.Snapshot()
	if snap.Counter(TxnCommitFast) != 0 || len(snap.Gauges) != 0 {
		t.Fatal("nil registry snapshot must be zero")
	}
}

func TestAggregateOnScrape(t *testing.T) {
	r := NewRegistry()
	a, b := r.NewShard(), r.NewShard()
	a.Inc(TxnCommitFast)
	a.Inc(TxnCommitFast)
	b.Inc(TxnCommitFast)
	b.Add(TxnAbortValidation, 5)
	a.Observe(HistCommit, time.Millisecond)
	b.Observe(HistCommit, time.Millisecond)
	b.Observe(HistAbort, time.Microsecond)

	snap := r.Snapshot()
	if got := snap.Counter(TxnCommitFast); got != 3 {
		t.Fatalf("fast commits = %d, want 3", got)
	}
	if got := snap.Counter(TxnAbortValidation); got != 5 {
		t.Fatalf("validation aborts = %d, want 5", got)
	}
	if got := snap.Hists[HistCommit].Count(); got != 2 {
		t.Fatalf("commit latency count = %d, want 2", got)
	}
	h := snap.Hists[HistCommit].Histogram()
	p50 := h.Percentile(0.5)
	if p50 < 900*time.Microsecond || p50 > 1100*time.Microsecond {
		t.Fatalf("commit p50 = %v, want ~1ms", p50)
	}
}

func TestGauges(t *testing.T) {
	r := NewRegistry()
	v := uint64(7)
	r.RegisterGauge("queue_depth", func() uint64 { return v })
	snap := r.Snapshot()
	if len(snap.Gauges) != 1 || snap.Gauges[0].Name != "queue_depth" || snap.Gauges[0].Value != 7 {
		t.Fatalf("gauges = %+v", snap.Gauges)
	}
	// Re-registering by name replaces, so re-created components don't pile
	// up duplicate export names.
	r.RegisterGauge("queue_depth", func() uint64 { return 42 })
	snap = r.Snapshot()
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 42 {
		t.Fatalf("replaced gauge = %+v", snap.Gauges)
	}
}

func TestSnapshotSub(t *testing.T) {
	r := NewRegistry()
	s := r.NewShard()
	s.Add(TxnCommitFast, 10)
	s.Observe(HistCommit, time.Millisecond)
	before := r.Snapshot()
	s.Add(TxnCommitFast, 5)
	s.Observe(HistCommit, time.Millisecond)
	delta := r.Snapshot().Sub(before)
	if got := delta.Counter(TxnCommitFast); got != 5 {
		t.Fatalf("delta fast commits = %d, want 5", got)
	}
	if got := delta.Hists[HistCommit].Count(); got != 1 {
		t.Fatalf("delta hist count = %d, want 1", got)
	}
}

// TestConcurrentRecordAndScrape exercises the race surface: many recorders,
// concurrent scrapes. Run under -race in CI.
func TestConcurrentRecordAndScrape(t *testing.T) {
	r := NewRegistry()
	const shards, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		s := r.NewShard()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				s.Inc(TxnCommitFast)
				s.Observe(HistCommit, time.Duration(j))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := r.Snapshot().Counter(TxnCommitFast); got != shards*per {
		t.Fatalf("total = %d, want %d", got, shards*per)
	}
}

func TestCounterNamesComplete(t *testing.T) {
	for c := Counter(0); c < NumCounters; c++ {
		if c.Name() == "" {
			t.Fatalf("counter %d has no export name", c)
		}
	}
	for h := Hist(0); h < NumHists; h++ {
		if h.Name() == "" {
			t.Fatalf("histogram %d has no export name", h)
		}
	}
}
