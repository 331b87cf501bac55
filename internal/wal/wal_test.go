package wal

import (
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/occ"
	"meerkat/internal/timestamp"
	"meerkat/internal/vstore"
)

func ts(t int64) timestamp.Timestamp { return timestamp.Timestamp{Time: t, ClientID: 1} }

// testTxn builds a small transaction writing key=val and reading rkey.
func testTxn(seq uint64, key, val, rkey string) message.Txn {
	return message.Txn{
		ID:       timestamp.TxnID{Seq: seq, ClientID: 1},
		ReadSet:  []message.ReadSetEntry{{Key: rkey, WTS: ts(1)}},
		WriteSet: []message.WriteSetEntry{{Key: key, Value: []byte(val)}},
	}
}

// withSched gives opts a group-commit scheduler that the test's cleanup
// stops, as Open gives each of its logs the store's.
func withSched(t *testing.T, opts Options) Options {
	s := NewScheduler(opts.GroupCommitInterval, opts.Clock)
	t.Cleanup(s.Stop)
	opts.Scheduler = s
	return opts
}

// replayAll reopens the log at dir collecting every record (deep-copied; the
// decode target is reused across frames).
func replayAll(t *testing.T, dir string, opts Options) ([]message.Message, ReplayStats, *Log) {
	t.Helper()
	var got []message.Message
	l, rs, err := openLog(dir, withSched(t, opts), func(m *message.Message) error {
		cp := *m
		cp.Txn.ReadSet = append([]message.ReadSetEntry(nil), m.Txn.ReadSet...)
		cp.Txn.WriteSet = append([]message.WriteSetEntry(nil), m.Txn.WriteSet...)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("openLog: %v", err)
	}
	return got, rs, l
}

func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rs, err := openLog(dir, withSched(t, Options{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Records != 0 {
		t.Fatalf("fresh log replayed %d records", rs.Records)
	}
	want := []message.Txn{
		testTxn(1, "a", "v1", "b"),
		testTxn(2, "b", "v2", "a"),
		testTxn(3, "c", "longer value to vary frame sizes", "a"),
	}
	for i, txn := range want {
		l.AppendCommit(&txn, ts(int64(10+i)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, rs, l2 := replayAll(t, dir, Options{})
	defer l2.Close()
	if rs.Torn {
		t.Fatal("clean log reported torn")
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Txn, want[i]) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i].Txn, want[i])
		}
		if got[i].TS != ts(int64(10+i)) {
			t.Fatalf("record %d: TS %v want %v", i, got[i].TS, ts(int64(10+i)))
		}
	}
	if rs.Watermark != ts(12) {
		t.Fatalf("watermark %v, want %v", rs.Watermark, ts(12))
	}
}

// TestTornTail crashes mid-frame: replay must stop cleanly at the last valid
// record, truncate the garbage, and leave the log appendable.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openLog(dir, withSched(t, Options{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		txn := testTxn(i, "k", "v", "r")
		l.AppendCommit(&txn, ts(int64(i)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the last record mid-frame and smear garbage after.
	path := filepath.Join(dir, segName(1))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(buf[:len(buf)-5], 0xDE, 0xAD)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	got, rs, l2 := replayAll(t, dir, Options{})
	if !rs.Torn {
		t.Fatal("torn tail not reported")
	}
	if len(got) != 2 {
		t.Fatalf("replayed %d records past a torn tail, want 2", len(got))
	}
	// The log must be appendable after truncation: new records replace the
	// torn region cleanly.
	txn := testTxn(9, "post", "crash", "r")
	l2.AppendCommit(&txn, ts(9))
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, rs, l3 := replayAll(t, dir, Options{})
	defer l3.Close()
	if rs.Torn {
		t.Fatal("log torn after truncate+append")
	}
	if len(got) != 3 || got[2].Txn.ID.Seq != 9 {
		t.Fatalf("post-truncate replay: %d records (last %+v), want 3 ending in seq 9", len(got), got[len(got)-1].Txn.ID)
	}
}

// TestCorruptRecordStopsReplay flips a byte inside an early record: replay
// must stop before it — and discard later segments, which would otherwise
// replay records past a lost one.
func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so the log spans several files.
	opts := Options{MaxSegmentBytes: 1}
	l, _, err := openLog(dir, withSched(t, opts), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ {
		txn := testTxn(i, "k", "v", "r")
		l.AppendCommit(&txn, ts(int64(i)))
		l.Flush() // each flush exceeds MaxSegmentBytes and rotates
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %v (err %v)", segs, err)
	}

	// Corrupt a payload byte in the second segment.
	path := filepath.Join(dir, segName(segs[1]))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[frameHeader+2] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	got, rs, l2 := replayAll(t, dir, opts)
	defer l2.Close()
	if !rs.Torn {
		t.Fatal("corrupt record not reported as torn")
	}
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want 1 (everything after the corruption dropped)", len(got))
	}
	left, _ := segments(dir)
	for _, s := range left {
		if s > segs[1] {
			t.Fatalf("segment %d after the corrupt one survived: %v", s, left)
		}
	}
}

// TestMarkAndTruncate drives the snapshot protocol's log half: rotate at the
// mark, truncate below it, and verify only post-mark records replay.
func TestMarkAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openLog(dir, withSched(t, Options{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	pre := testTxn(1, "old", "x", "r")
	l.AppendCommit(&pre, ts(1))
	mark, err := l.MarkSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	post := testTxn(2, "new", "y", "r")
	l.AppendCommit(&post, ts(2))
	if err := l.TruncateBefore(mark); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, rs, l2 := replayAll(t, dir, Options{})
	defer l2.Close()
	if rs.Torn {
		t.Fatal("truncated log reported torn")
	}
	if len(got) != 1 || got[0].Txn.ID.Seq != 2 {
		t.Fatalf("post-truncate replay %d records (first %+v), want just seq 2", len(got), got[0].Txn.ID)
	}
}

// TestCrashDropsPendingCloseKeepsIt pins the crash/graceful-stop semantics:
// Crash abandons the user-space buffer (a killed process would), Close
// flushes and fsyncs it.
func TestCrashDropsPendingCloseKeepsIt(t *testing.T) {
	// An interval long enough that the group-commit goroutine never runs.
	opts := Options{GroupCommitInterval: time.Hour}

	t.Run("crash", func(t *testing.T) {
		dir := t.TempDir()
		l, _, err := openLog(dir, withSched(t, opts), nil)
		if err != nil {
			t.Fatal(err)
		}
		txn := testTxn(1, "k", "v", "r")
		l.AppendCommit(&txn, ts(1))
		l.Crash()
		got, _, l2 := replayAll(t, dir, opts)
		defer l2.Close()
		if len(got) != 0 {
			t.Fatalf("crash preserved %d buffered records, want 0", len(got))
		}
	})

	t.Run("close", func(t *testing.T) {
		dir := t.TempDir()
		l, _, err := openLog(dir, withSched(t, opts), nil)
		if err != nil {
			t.Fatal(err)
		}
		txn := testTxn(1, "k", "v", "r")
		l.AppendCommit(&txn, ts(1))
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, _, l2 := replayAll(t, dir, opts)
		defer l2.Close()
		if len(got) != 1 {
			t.Fatalf("close preserved %d records, want 1", len(got))
		}
	})

	t.Run("sync-always-survives-crash", func(t *testing.T) {
		dir := t.TempDir()
		always := opts
		always.Sync = SyncAlways
		l, _, err := openLog(dir, withSched(t, always), nil)
		if err != nil {
			t.Fatal(err)
		}
		txn := testTxn(1, "k", "v", "r")
		l.AppendCommit(&txn, ts(1))
		st := l.Stats()
		if st.Syncs == 0 {
			t.Fatal("SyncAlways append did not fsync")
		}
		l.Crash()
		got, _, l2 := replayAll(t, dir, always)
		defer l2.Close()
		if len(got) != 1 {
			t.Fatalf("SyncAlways crash lost the record: replayed %d, want 1", len(got))
		}
	})
}

// TestStoreSnapshotRoundTrip exercises the whole Store protocol — snapshot
// over ExportShard/ImportState with multi-version entries, manifest commit,
// truncation, and reopen — asserting the recovered store matches the
// original exactly.
func TestStoreSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, 2, Options{GroupCommitInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	vs := rec.Store

	// Multi-version entries: k1 gets two versions (only the latest is
	// snapshot state) plus an advanced rts.
	vs.Load("k1", []byte("v1"), ts(1))
	vs.Load("k1", []byte("v2"), ts(2))
	vs.CommitRead("k1", ts(7))
	vs.Load("k2", []byte("w"), ts(3))

	if err := s.Snapshot(vs); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	// Post-snapshot commits land in the logs of different cores.
	t1 := testTxn(10, "k3", "log-written", "k1")
	s.Log(0).AppendCommit(&t1, ts(8))
	t2 := testTxn(11, "k1", "v3", "k2")
	s.Log(1).AppendCommit(&t2, ts(9))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2, err := Open(dir, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.SnapshotSeq != 1 || rec2.SnapshotKeys != 2 {
		t.Fatalf("recovered snapshot seq=%d keys=%d, want 1/2", rec2.SnapshotSeq, rec2.SnapshotKeys)
	}
	if rec2.Records != 2 {
		t.Fatalf("recovered %d log records, want 2", rec2.Records)
	}
	if rec2.Watermark != ts(9) {
		t.Fatalf("watermark %v, want %v", rec2.Watermark, ts(9))
	}

	got := rec2.Store
	if v, ok := got.Read("k1"); !ok || string(v.Value) != "v3" || v.WTS != ts(9) {
		t.Fatalf("k1 = %q@%v ok=%v, want v3@%v", v.Value, v.WTS, ok, ts(9))
	}
	if v, ok := got.Read("k2"); !ok || string(v.Value) != "w" {
		t.Fatalf("k2 = %q ok=%v, want w", v.Value, ok)
	}
	if v, ok := got.Read("k3"); !ok || string(v.Value) != "log-written" {
		t.Fatalf("k3 = %q ok=%v, want log-written", v.Value, ok)
	}
	// rts survives: from the snapshot (7) then advanced by t1's read at 8.
	if _, rts := got.Meta("k1"); rts != ts(8) {
		t.Fatalf("k1 rts %v, want %v", rts, ts(8))
	}
	if _, rts := got.Meta("k2"); rts != ts(9) {
		t.Fatalf("k2 rts %v, want %v", rts, ts(9))
	}
}

// TestStoreSecondSnapshotGC asserts a later snapshot supersedes the earlier
// one on disk and truncated segments actually disappear.
func TestStoreSecondSnapshotGC(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, 1, Options{GroupCommitInterval: time.Hour, MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := rec.Store
	for i := uint64(1); i <= 3; i++ {
		txn := testTxn(i, "k", "v", "r")
		s.Log(0).AppendCommit(&txn, ts(int64(i)))
		vs.Load("k", []byte("v"), ts(int64(i)))
		s.Log(0).Flush()
	}
	if err := s.Snapshot(vs); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(vs); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range ents {
		if !e.IsDir() && e.Name() != manifestName {
			snaps++
			if e.Name() != snapshotName(2) {
				t.Fatalf("unexpected file %s (old snapshot not GC'd?)", e.Name())
			}
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshot files on disk, want 1", snaps)
	}
	segs, _ := segments(coreDir(dir, 0))
	if len(segs) != 1 {
		t.Fatalf("%d segments survive double snapshot, want 1 (got %v)", len(segs), segs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The replayed state after GC must still be complete.
	_, rec2, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := rec2.Store.Read("k"); !ok || v.WTS != ts(3) {
		t.Fatalf("k = %v@%v ok=%v after GC, want @%v", v.Value, v.WTS, ok, ts(3))
	}
}

// TestExportShardSince pins the delta-export filter the recovery path relies
// on: only keys written or read after the watermark are shipped — unless the
// wall-clock axis is engaged, which additionally ships keys applied locally
// after the given instant regardless of their timestamps.
func TestExportShardSince(t *testing.T) {
	vs := vstore.New(vstore.Config{Shards: 1})
	before := time.Now().UnixNano()
	vs.Load("old", []byte("x"), ts(1))
	vs.Load("new", []byte("y"), ts(10))
	vs.Load("readlater", []byte("z"), ts(2))
	vs.CommitRead("readlater", ts(11))

	full := vs.ExportShard(0)
	if len(full) != 3 {
		t.Fatalf("full export %d keys, want 3", len(full))
	}
	delta := vs.ExportShardSince(0, ts(5), 0)
	names := map[string]bool{}
	for _, ks := range delta {
		names[ks.Key] = true
	}
	if len(delta) != 2 || !names["new"] || !names["readlater"] {
		t.Fatalf("delta export %v, want {new, readlater}", names)
	}

	// Wall-clock axis: everything above was applied after `before`, so even
	// "old" (TS-filtered out) ships — the sweeper/backup-coordinator case of
	// a commit finalized long after its timestamp was assigned.
	wallDelta := vs.ExportShardSince(0, ts(5), before)
	if len(wallDelta) != 3 {
		t.Fatalf("wall-clock delta %d keys, want 3", len(wallDelta))
	}
	// A bound in the future ships nothing beyond the TS filter.
	future := vs.ExportShardSince(0, ts(5), time.Now().UnixNano()+int64(time.Hour))
	if len(future) != 2 {
		t.Fatalf("future wall-clock delta %d keys, want 2", len(future))
	}
}

// TestReplayRefusesPreChangeRecords: a commit record written when every type
// carried every field of Message — type 25 then, and 130 bytes for this one —
// is refused by replay by its type, loudly and with the log left as it was:
// never misread under the new layout, never truncated as a torn tail.
func TestReplayRefusesPreChangeRecords(t *testing.T) {
	const old = "19" + "0000000000000000" + // type 25; src
		"01000000000000000200000000000000" + "00" + "01016b0176" + "00" + // txn 1/2: no reads, k=v, no ops
		"00000000000000000000000000000000" + // tid
		"05000000000000000200000000000000" // ts 5/2; 66 zero bytes of the other fields follow
	payload, err := hex.DecodeString(old + strings.Repeat("00", 66))
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)
	dir := t.TempDir()
	path := filepath.Join(coreDir(dir, 0), segName(1))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, 1, Options{}); err == nil || !strings.Contains(err.Error(), "unexpected record type type(25)") {
		t.Fatalf("Open of a pre-change log: %v, want it refused as record type 25", err)
	}
	if got, err := os.ReadFile(path); err != nil || !reflect.DeepEqual(got, frame) {
		t.Fatalf("the refused log changed: %d bytes, %v", len(got), err)
	}
}

// TestValidPrefixHugeLength pins the torn-tail handling of a corrupt frame
// length with the top bit set: replay must end cleanly at the frame, not
// convert the length to a negative int (32-bit platforms) and panic slicing.
func TestValidPrefixHugeLength(t *testing.T) {
	buf := make([]byte, frameHeader+16)
	binary.LittleEndian.PutUint32(buf, 0xFFFFFFFF)
	n, torn, err := validPrefix(buf, func([]byte) error {
		t.Fatal("corrupt frame delivered a payload")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || !torn {
		t.Fatalf("validPrefix = (%d, torn=%v), want (0, true)", n, torn)
	}
}

// TestSnapshotWaitsForApply pins the append+apply atomicity that makes log
// truncation safe: a snapshot that starts while a logged record's apply hook
// is still running must block until the apply lands, so the exported store
// always covers every record the mark flushed into pre-mark (truncatable)
// segments. Without the pairing, the snapshot would export the store before
// the apply, truncate the record's only durable copy, and lose the commit.
func TestSnapshotWaitsForApply(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vs := rec.Store
	entered := make(chan struct{})
	release := make(chan struct{})
	s.Log(0).SetApply(func(txn *message.Txn, tts timestamp.Timestamp) {
		close(entered)
		<-release
		occ.ApplyCommit(vs, txn, tts)
	})

	txn := testTxn(1, "k", "survivor", "r")
	go s.Log(0).AppendCommit(&txn, ts(7))
	<-entered

	snapDone := make(chan error, 1)
	go func() { snapDone <- s.Snapshot(vs) }()
	select {
	case <-snapDone:
		t.Fatal("snapshot completed while a logged record's apply was pending")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-snapDone; err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The record's log segment was truncated by the snapshot; the commit must
	// survive the reopen regardless.
	_, rec2, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := rec2.Store.Read("k"); !ok || string(v.Value) != "survivor" || v.WTS != ts(7) {
		t.Fatalf(`Read("k") = %q@%v ok=%v after snapshot+reopen, want "survivor"@%v`, v.Value, v.WTS, ok, ts(7))
	}
}

// TestFlushFailureRetainsRecords pins the IO-error contract: a failed write
// must requeue the drained records (a later flush retries them), count the
// failure, and latch the error for Err — never silently drop frames that the
// replica already acknowledged as durable.
func TestFlushFailureRetainsRecords(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openLog(dir, withSched(t, Options{GroupCommitInterval: time.Hour}), nil)
	if err != nil {
		t.Fatal(err)
	}
	txn := testTxn(1, "k", "v", "r")
	l.AppendCommit(&txn, ts(3))

	// Sabotage the segment file out from under the log; the next write fails.
	l.wmu.Lock()
	l.f.Close()
	seg := l.seg
	l.wmu.Unlock()
	if err := l.Flush(); err == nil {
		t.Fatal("Flush on a closed file succeeded")
	}
	if got := l.Stats().Failures; got == 0 {
		t.Fatal("failure not counted in Stats")
	}
	if l.Err() == nil {
		t.Fatal("failure not latched in Err")
	}

	// Repair the file; the retained records must flush and replay intact.
	f, err := os.OpenFile(filepath.Join(dir, segName(seg)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	l.wmu.Lock()
	l.f = f
	l.wmu.Unlock()
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush after repair: %v", err)
	}
	if err := l.Err(); err == nil {
		t.Fatal("Err must stay sticky after recovery")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, rs, l2 := replayAll(t, dir, Options{})
	defer l2.Close()
	if rs.Torn {
		t.Fatal("repaired log reported torn")
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0].Txn, txn) {
		t.Fatalf("replayed %d records (%+v), want the retained one", len(got), got)
	}
}
