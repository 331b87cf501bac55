package vstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"meerkat/internal/message"
	"meerkat/internal/timestamp"
)

func ts(t int64) timestamp.Timestamp { return timestamp.Timestamp{Time: t, ClientID: 1} }

// vh hashes a value the way a client computing ReadSetEntry.VHash would.
func vh(v string) uint64 { return message.HashValue([]byte(v)) }

func TestReadMissingKey(t *testing.T) {
	s := New(Config{})
	if _, ok := s.Read("nope"); ok {
		t.Fatal("read of missing key succeeded")
	}
}

func TestLoadAndRead(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v1"), ts(1))
	v, ok := s.Read("k")
	if !ok || string(v.Value) != "v1" || v.WTS != ts(1) {
		t.Fatalf("got %+v ok=%v", v, ok)
	}
}

func TestReadReturnsLatest(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v1"), ts(1))
	s.CommitWrite("k", []byte("v2"), ts(5))
	s.CommitWrite("k", []byte("v3"), ts(9))
	v, _ := s.Read("k")
	if string(v.Value) != "v3" || v.WTS != ts(9) {
		t.Fatalf("got %+v", v)
	}
}

// TestSnapshotReadFindsOlderVersion is the case table of the deleted ReadAt's
// test: a plain-write key looked up below, at, between and above its versions.
func TestSnapshotReadFindsOlderVersion(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v1"), ts(1))
	s.CommitWrite("k", []byte("v2"), ts(5))
	s.CommitWrite("k", []byte("v3"), ts(9))

	cases := []struct {
		at    int64
		want  string
		found bool
	}{
		{0, "", false},
		{1, "v1", true},
		{4, "v1", true},
		{5, "v2", true},
		{8, "v2", true},
		{9, "v3", true},
		{100, "v3", true},
	}
	for _, c := range cases {
		v, bound, ok := s.SnapshotRead("k", ts(c.at))
		if ok != c.found {
			t.Errorf("SnapshotRead(%d): found=%v, want %v", c.at, ok, c.found)
			continue
		}
		if ok && string(v.Value) != c.want {
			t.Errorf("SnapshotRead(%d) = %q, want %q", c.at, v.Value, c.want)
		}
		// The chain reaches back to the first write, so "none" is confirmed too.
		if bound != ts(c.at) {
			t.Errorf("SnapshotRead(%d): bound %v, want the snapshot itself", c.at, bound)
		}
	}
	if _, _, ok := s.SnapshotRead("nope", ts(100)); ok {
		t.Error("SnapshotRead of a missing key found a version")
	}
}

// TestReturnedVersionsSurviveAFold pins what a caller keeps once the store's
// slots move on. An out-of-order append folded in below a run of appends
// rewrites every version of the run in place: re-materialized over a slot
// with room, over a full history that trims as it inserts, or — under a
// trimmed base — recovered arithmetically. The Versions that Read,
// SnapshotRead and Versions handed out before the fold must keep their bytes
// and merge records: each new value is a fresh slice, never written into the
// array of the value it replaces.
func TestReturnedVersionsSurviveAFold(t *testing.T) {
	for _, c := range []struct {
		name      string
		cfg       Config
		prep      func(*Store)
		recovered uint64
	}{
		{"rematerialized", Config{MaxVersions: -1}, func(s *Store) {
			s.Load("k", []byte("x"), ts(10))
		}, 0},
		{"rematerialized-full", Config{MaxVersions: 5}, func(s *Store) {
			s.Load("k", []byte("x"), ts(10)) // with the run, exactly 5 versions
		}, 0},
		{"recovered", Config{MaxVersions: 4}, func(s *Store) {
			s.CommitOp("k", message.OpAppend, 0, []byte("x"), ts(10)) // trimmed by the run
		}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(c.cfg)
			c.prep(s)
			for i := int64(0); i < 4; i++ {
				s.CommitOp("k", message.OpAppend, 0, []byte{'a' + byte(i)}, ts(20+10*i))
			}
			latest, _ := s.Read("k")
			mid, _, _ := s.SnapshotRead("k", ts(35))
			held := append([]Version{latest, mid}, s.Versions("k")...)
			want := make([]Version, len(held))
			for i, v := range held {
				want[i] = v
				want[i].Value, want[i].OpArg = bytes.Clone(v.Value), bytes.Clone(v.OpArg)
			}

			s.CommitOp("k", message.OpAppend, 0, []byte("Z"), ts(15)) // below the whole run
			if _, rec := s.OpStats(); rec != c.recovered {
				t.Fatalf("recovered folds = %d, want %d", rec, c.recovered)
			}
			for i := range held {
				if !sameVersion(held[i], want[i]) {
					t.Errorf("held version %v changed under the fold: %q, was %q", want[i].WTS, held[i].Value, want[i].Value)
				}
			}
			// The store moved on: the same merge records, new values.
			now := map[timestamp.Timestamp]Version{}
			for _, v := range s.Versions("k") {
				now[v.WTS] = v
			}
			for _, b := range want[2:] {
				if b.WTS.Time < 20 {
					continue
				}
				a, ok := now[b.WTS]
				if !ok {
					t.Fatalf("version %v gone after the fold", b.WTS)
				}
				if a.Op != b.Op || !bytes.Equal(a.OpArg, b.OpArg) {
					t.Errorf("version %v merge record changed: %+v -> %+v", b.WTS, b, a)
				}
				if !bytes.Contains(a.Value, []byte("Z")) {
					t.Errorf("version %v was not re-materialized: %q", b.WTS, a.Value)
				}
			}
		})
	}
}

func TestThomasWriteRule(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("new"), ts(10))
	// A write with an older timestamp commits but never becomes the latest
	// value; it stays in the history, where a snapshot between the two
	// timestamps must find it.
	s.CommitWrite("k", []byte("stale"), ts(5))
	v, _ := s.Read("k")
	if string(v.Value) != "new" {
		t.Fatalf("stale write became visible: %q", v.Value)
	}
	if v, _, ok := s.SnapshotRead("k", ts(7)); !ok || string(v.Value) != "stale" {
		t.Fatalf("snapshot at 7 read %q ok=%v, want the write committed at 5", v.Value, ok)
	}
	if got := len(s.Versions("k")); got != 2 {
		t.Fatalf("version chain has %d entries, want 2", got)
	}
	// Equal timestamp is also skipped (same transaction ts cannot happen,
	// but the rule must be stable).
	s.CommitWrite("k", []byte("dup"), ts(10))
	v, _ = s.Read("k")
	if string(v.Value) != "new" {
		t.Fatalf("equal-ts write became visible: %q", v.Value)
	}
}

func TestValidateReadFreshVersion(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v"), ts(5))
	// Reader saw version 5, proposes ts 10: OK.
	if !s.ValidateRead("k", ts(5), vh("v"), ts(10)) {
		t.Fatal("fresh read failed validation")
	}
	r, w := s.Pending("k")
	if r != 1 || w != 0 {
		t.Fatalf("pending = (%d,%d), want (1,0)", r, w)
	}
}

func TestValidateReadStaleVersion(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v"), ts(5))
	s.CommitWrite("k", []byte("v2"), ts(8))
	// Reader saw version 5 but latest is 8: must abort.
	if s.ValidateRead("k", ts(5), vh("v"), ts(10)) {
		t.Fatal("stale read passed validation")
	}
	if r, _ := s.Pending("k"); r != 0 {
		t.Fatal("failed validation left a pending reader")
	}
}

func TestValidateReadPendingWriterBelow(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v"), ts(5))
	if !s.ValidateWrite("k", ts(7)) {
		t.Fatal("setup write failed")
	}
	// A pending writer at 7 < our read ts 10: even if it commits, our read
	// of version 5 would be stale as of 10. Abort.
	if s.ValidateRead("k", ts(5), vh("v"), ts(10)) {
		t.Fatal("read above a pending writer passed validation")
	}
	// But a read below the pending writer is fine.
	if !s.ValidateRead("k", ts(5), vh("v"), ts(6)) {
		t.Fatal("read below pending writer failed validation")
	}
}

func TestValidateWriteBelowRTS(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v"), ts(5))
	s.CommitRead("k", ts(10)) // committed read at 10
	if s.ValidateWrite("k", ts(8)) {
		t.Fatal("write below rts passed validation")
	}
	if !s.ValidateWrite("k", ts(12)) {
		t.Fatal("write above rts failed validation")
	}
}

func TestValidateWriteBelowPendingReader(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v"), ts(5))
	if !s.ValidateRead("k", ts(5), vh("v"), ts(10)) {
		t.Fatal("setup read failed")
	}
	// Write at 8 would interpose between version 5 and the pending read
	// at 10: abort.
	if s.ValidateWrite("k", ts(8)) {
		t.Fatal("write below pending reader passed validation")
	}
	if !s.ValidateWrite("k", ts(11)) {
		t.Fatal("write above pending reader failed validation")
	}
}

func TestAbortCleanup(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v"), ts(5))
	s.ValidateRead("k", ts(5), vh("v"), ts(10))
	s.ValidateWrite("k", ts(10))
	s.RemoveReader("k", ts(10))
	s.RemoveWriter("k", ts(10))
	r, w := s.Pending("k")
	if r != 0 || w != 0 {
		t.Fatalf("pending = (%d,%d) after cleanup", r, w)
	}
	// Cleanup of unknown keys must not panic.
	s.RemoveReader("nope", ts(1))
	s.RemoveWriter("nope", ts(1))
}

func TestCommitReadAdvancesRTS(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v"), ts(5))
	s.ValidateRead("k", ts(5), vh("v"), ts(10))
	s.CommitRead("k", ts(10))
	if _, rts := s.Meta("k"); rts != ts(10) {
		t.Fatalf("rts = %v, want %v", rts, ts(10))
	}
	// rts never regresses.
	s.CommitRead("k", ts(7))
	if _, rts := s.Meta("k"); rts != ts(10) {
		t.Fatalf("rts regressed to %v", rts)
	}
	if r, _ := s.Pending("k"); r != 0 {
		t.Fatal("CommitRead left a pending reader")
	}
}

func TestCommitWriteClearsPendingWriter(t *testing.T) {
	s := New(Config{})
	s.ValidateWrite("k", ts(10))
	s.CommitWrite("k", []byte("v"), ts(10))
	if _, w := s.Pending("k"); w != 0 {
		t.Fatal("CommitWrite left a pending writer")
	}
	if wts, _ := s.Meta("k"); wts != ts(10) {
		t.Fatalf("wts = %v", wts)
	}
}

func TestFirstWriteOfKey(t *testing.T) {
	// Reading a missing key yields WTS Zero; a concurrent first write must
	// then invalidate the read.
	s := New(Config{})
	if !s.ValidateRead("k", timestamp.Zero, vh(""), ts(10)) {
		t.Fatal("read of missing key failed validation")
	}
	s.RemoveReader("k", ts(10))
	s.CommitWrite("k", []byte("v"), ts(5))
	if s.ValidateRead("k", timestamp.Zero, vh(""), ts(10)) {
		t.Fatal("read validated against Zero version after a write committed")
	}
}

func TestMaxVersionsTrim(t *testing.T) {
	s := New(Config{MaxVersions: 3})
	for i := 1; i <= 10; i++ {
		s.CommitWrite("k", []byte{byte(i)}, ts(int64(i)))
	}
	vs := s.Versions("k")
	if len(vs) != 3 {
		t.Fatalf("kept %d versions, want 3", len(vs))
	}
	if vs[0].WTS != ts(8) || vs[2].WTS != ts(10) {
		t.Fatalf("wrong versions kept: %v..%v", vs[0].WTS, vs[2].WTS)
	}
}

func TestUnboundedVersions(t *testing.T) {
	s := New(Config{MaxVersions: -1})
	for i := 1; i <= 50; i++ {
		s.CommitWrite("k", nil, ts(int64(i)))
	}
	if got := len(s.Versions("k")); got != 50 {
		t.Fatalf("kept %d versions, want 50", got)
	}
}

func TestLenAndExport(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 20; i++ {
		s.Load(fmt.Sprintf("key-%d", i), []byte("v"), ts(1))
	}
	if s.Len() != 20 {
		t.Fatalf("Len = %d", s.Len())
	}
	seen := map[string]bool{}
	for i := 0; i < s.NumShards(); i++ {
		for _, st := range s.ExportShard(i) {
			seen[st.Key] = true
		}
	}
	if len(seen) != 20 {
		t.Fatalf("ExportShard visited %d keys", len(seen))
	}
}

func TestShardsMustBePowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a non-power-of-two shard count")
		}
	}()
	New(Config{Shards: 100})
}

func TestVersionChainAlwaysAscending(t *testing.T) {
	// Property: regardless of commit order, the version chain is strictly
	// ascending in WTS and the latest version has the max committed ts.
	f := func(times []int64) bool {
		s := New(Config{MaxVersions: -1})
		var maxTS timestamp.Timestamp
		any := false
		for _, tt := range times {
			w := ts(tt)
			s.CommitWrite("k", []byte{1}, w)
			if !any || maxTS.Less(w) {
				// Only strictly newer writes install.
				if !any || maxTS.Less(w) {
					maxTS = timestamp.Max(maxTS, w)
				}
				any = true
			}
		}
		vs := s.Versions("k")
		for i := 1; i < len(vs); i++ {
			if !vs[i-1].WTS.Less(vs[i].WTS) {
				return false
			}
		}
		if any && len(vs) > 0 && vs[len(vs)-1].WTS != maxTS {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDisjointKeys(t *testing.T) {
	// DAP smoke test: transactions on disjoint keys running from many
	// goroutines must all validate and commit without interference.
	s := New(Config{})
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				tsv := timestamp.Timestamp{Time: int64(i + 1), ClientID: uint64(w)}
				if !s.ValidateRead(key, timestamp.Zero, vh(""), tsv) {
					errs <- fmt.Errorf("read validation failed for %s", key)
					return
				}
				if !s.ValidateWrite(key, tsv) {
					errs <- fmt.Errorf("write validation failed for %s", key)
					return
				}
				s.CommitRead(key, tsv)
				s.CommitWrite(key, []byte("v"), tsv)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", s.Len(), workers*perWorker)
	}
}

func TestConcurrentSameKeyNoTornState(t *testing.T) {
	// Hammer one key from many goroutines with the full validate/commit or
	// validate/abort flow; afterwards no pending readers/writers may leak.
	s := New(Config{})
	s.Load("hot", []byte("v0"), ts(0))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				tsv := timestamp.Timestamp{Time: int64(rng.Intn(1000000)), ClientID: uint64(w + 1)}
				v, _ := s.Read("hot")
				okR := s.ValidateRead("hot", v.WTS, message.HashValue(v.Value), tsv)
				okW := okR && s.ValidateWrite("hot", tsv)
				if okR && okW {
					s.CommitRead("hot", tsv)
					s.CommitWrite("hot", []byte("v"), tsv)
				} else {
					if okR {
						s.RemoveReader("hot", tsv)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	r, w := s.Pending("hot")
	if r != 0 || w != 0 {
		t.Fatalf("leaked pending state: readers=%d writers=%d", r, w)
	}
	vs := s.Versions("hot")
	for i := 1; i < len(vs); i++ {
		if !vs[i-1].WTS.Less(vs[i].WTS) {
			t.Fatal("version chain not ascending")
		}
	}
}

func BenchmarkReadDisjoint(b *testing.B) {
	s := New(Config{})
	const n = 1 << 16
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		s.Load(keys[i], []byte("value"), ts(1))
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Intn(n)
		for pb.Next() {
			s.Read(keys[i&(n-1)])
			i++
		}
	})
}

func BenchmarkValidateCommitDisjoint(b *testing.B) {
	s := New(Config{})
	const n = 1 << 16
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		s.Load(keys[i], []byte("value"), ts(1))
	}
	b.ReportAllocs()
	var ctr int64
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Intn(n)
		for pb.Next() {
			k := keys[i&(n-1)]
			tsv := timestamp.Timestamp{Time: int64(i + 2), ClientID: uint64(i)}
			v, _ := s.Read(k)
			if s.ValidateRead(k, v.WTS, message.HashValue(v.Value), tsv) && s.ValidateWrite(k, tsv) {
				s.CommitRead(k, tsv)
				s.CommitWrite(k, []byte("value"), tsv)
			}
			i++
		}
	})
	_ = ctr
}

func TestExportImportState(t *testing.T) {
	src := New(Config{Shards: 4})
	src.Load("a", []byte("v1"), ts(1))
	src.CommitWrite("a", []byte("v2"), ts(5))
	src.CommitRead("a", ts(8))
	src.Load("b", []byte("w"), ts(2))
	src.ValidateWrite("c", ts(9)) // pending only: must NOT transfer
	src.CommitRead("d", ts(6))    // read, never written: its rts transfers

	if src.NumShards() != 4 {
		t.Fatalf("NumShards = %d", src.NumShards())
	}
	dst := New(Config{Shards: 4})
	total := 0
	for i := 0; i < src.NumShards(); i++ {
		states := src.ExportShard(i)
		total += len(states)
		dst.ImportState(states)
	}
	if total != 3 {
		t.Fatalf("exported %d keys, want 3 (pending-only key excluded)", total)
	}
	if wts, rts := dst.Meta("d"); !wts.IsZero() || rts != ts(6) {
		t.Fatalf("read-only key d imported as wts %v rts %v, want no version and rts %v", wts, rts, ts(6))
	}
	v, ok := dst.Read("a")
	if !ok || string(v.Value) != "v2" || v.WTS != ts(5) {
		t.Fatalf("a = %+v ok=%v", v, ok)
	}
	if _, rts := dst.Meta("a"); rts != ts(8) {
		t.Fatalf("rts = %v", rts)
	}
	if _, ok := dst.Read("c"); ok {
		t.Fatal("pending-only key transferred")
	}
	// Out-of-range shard indices are harmless.
	if src.ExportShard(-1) != nil || src.ExportShard(99) != nil {
		t.Fatal("out-of-range export returned data")
	}
	// Re-import is idempotent (Thomas rule + monotone rts).
	dst.ImportState(src.ExportShard(0))
	if got := len(dst.Versions("a")); got > 1 {
		t.Fatalf("re-import duplicated versions: %d", got)
	}
}
