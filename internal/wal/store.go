package wal

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"meerkat/internal/clock"
	"meerkat/internal/message"
	"meerkat/internal/occ"
	"meerkat/internal/timestamp"
	"meerkat/internal/vstore"
)

// manifestName is the snapshot pointer file at the root of a replica's
// durability directory.
const manifestName = "MANIFEST"

// manifest is the JSON body of the MANIFEST file. It only needs to name the
// current snapshot: commit records are idempotent (Thomas write rule,
// monotone rts), so replaying not-yet-truncated pre-snapshot segments over
// the snapshot is harmless and no per-core offsets are required.
type manifest struct {
	Snapshot string `json:"snapshot"` // snapshot file name, e.g. "snapshot-00000003.snap"
	Seq      uint64 `json:"seq"`      // snapshot sequence number
}

func snapshotName(seq uint64) string { return fmt.Sprintf("snapshot-%08d.snap", seq) }

// coreDir names the per-core log directory under the replica's root.
func coreDir(dir string, core int) string {
	return filepath.Join(dir, fmt.Sprintf("core-%d", core))
}

// Recovered reports what Open replayed from disk.
type Recovered struct {
	Store        *vstore.Store       // the store, populated from snapshot + logs
	Watermark    timestamp.Timestamp // max committed timestamp observed on disk
	SnapshotSeq  uint64              // snapshot sequence replayed (0 = none)
	SnapshotKeys int                 // keys restored from the snapshot
	Records      int                 // commit records replayed from the logs
	Torn         bool                // some log ended at a torn/corrupt frame
}

// Store is one replica's durability state: a per-core set of write-ahead
// logs plus the snapshot/manifest machinery that truncates them.
type Store struct {
	dir      string
	opts     Options
	logs     []*Log
	ownSched *Scheduler // private group-commit scheduler, if Options had none

	snapMu  sync.Mutex // serializes snapshots (and protects snapSeq)
	snapSeq uint64

	// g runs every background snapshot this store starts — the periodic
	// snapshotter and SnapshotAsync's one-shots — so Close and Crash return
	// only once nothing can still write under dir.
	g *clock.Group

	mu           sync.Mutex
	snapshotting bool // the periodic snapshotter is started
	closed       bool
}

// Open opens (creating if necessary) the durability directory for a replica
// with the given core count, replays the current snapshot and every valid
// log record into a fresh versioned store, and returns both. The logs are
// left open for appending, torn tails truncated. Replay is idempotent, so a
// directory whose truncation was interrupted mid-way recovers identically.
func Open(dir string, cores int, opts Options) (*Store, *Recovered, error) {
	if cores <= 0 {
		return nil, nil, fmt.Errorf("wal: cores must be positive, got %d", cores)
	}
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}

	vs := vstore.New(vstore.Config{Clock: opts.Clock})
	rec := &Recovered{Store: vs}

	// Snapshot first: logs replay over it.
	man, err := readManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	if man != nil {
		keys, wm, err := replaySnapshot(filepath.Join(dir, man.Snapshot), vs)
		if err != nil {
			return nil, nil, err
		}
		rec.SnapshotSeq = man.Seq
		rec.SnapshotKeys = keys
		if rec.Watermark.Less(wm) {
			rec.Watermark = wm
		}
	}

	s := &Store{dir: dir, opts: opts, snapSeq: 0, g: clock.NewGroup(opts.Clock)}
	if man != nil {
		s.snapSeq = man.Seq
	}
	if opts.Scheduler == nil {
		// One scheduler for all of this store's cores: their fsyncs batch
		// into (almost) one journal commit per tick instead of one each.
		s.ownSched = NewScheduler(opts.GroupCommitInterval, opts.Clock)
		opts.Scheduler = s.ownSched
	}
	for c := 0; c < cores; c++ {
		l, rs, err := openLog(coreDir(dir, c), opts, func(m *message.Message) error {
			occ.ApplyCommit(vs, &m.Txn, m.TS)
			return nil
		})
		if err != nil {
			for _, open := range s.logs {
				open.Close()
			}
			if s.ownSched != nil {
				s.ownSched.Stop()
			}
			return nil, nil, err
		}
		s.logs = append(s.logs, l)
		rec.Records += rs.Records
		rec.Torn = rec.Torn || rs.Torn
		if rec.Watermark.Less(rs.Watermark) {
			rec.Watermark = rs.Watermark
		}
	}
	return s, rec, nil
}

// readManifest returns the current manifest, or nil if none exists yet.
func readManifest(dir string) (*manifest, error) {
	buf, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("wal: corrupt manifest: %w", err)
	}
	return &m, nil
}

// replaySnapshot imports every valid page of a snapshot file into vs,
// returning the key count and the max WTS/RTS watermark observed. A missing
// file is not an error (the manifest may outlive a manually removed
// snapshot); replay then starts from the logs alone.
func replaySnapshot(path string, vs *vstore.Store) (int, timestamp.Timestamp, error) {
	var wm timestamp.Timestamp
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, wm, nil
	}
	if err != nil {
		return 0, wm, err
	}
	keys := 0
	_, _, err = validPrefix(buf, func(payload []byte) error {
		// A fresh message per page, never released: the store retains the
		// imported values, which are spans of the message's arena — the
		// collector's, this way, not a recycled target's.
		dec := &message.Message{}
		// The type first: a record from before a layout change is refused as such.
		err := message.DecodeInto(dec, payload)
		if dec.Type != message.TypeWALSnapshot {
			return fmt.Errorf("wal: %s: unexpected record type %v", path, dec.Type)
		}
		if err != nil {
			return fmt.Errorf("wal: %s: %w", path, err)
		}
		vs.ImportState(dec.State)
		for i := range dec.State {
			wm = timestamp.Max(wm, timestamp.Max(dec.State[i].WTS, dec.State[i].RTS))
		}
		keys += len(dec.State)
		return nil
	})
	return keys, wm, err
}

// Log returns core c's write-ahead log.
func (s *Store) Log(c int) *Log { return s.logs[c] }

// Cores returns the number of per-core logs.
func (s *Store) Cores() int { return len(s.logs) }

// Dir returns the durability directory root.
func (s *Store) Dir() string { return s.dir }

// Snapshot serializes vs's committed state to a new snapshot file and
// truncates the logs behind it. The protocol, in crash-safe order:
//
//  1. Mark: flush + rotate every core's log to a fresh segment. Every record
//     a mark flushes into a pre-mark segment has already had its effects
//     applied to the store (AppendCommit holds the record in the pending
//     buffer until the apply hook has run, and the SyncAlways path applies
//     before releasing the writer lock the mark needs), so the step-2 export
//     is guaranteed to see it: truncating pre-mark segments in step 4 never
//     deletes a record's only copy. The export being live also means records
//     committed AFTER the mark may land in the snapshot — fine, replaying
//     their post-mark frames over it is idempotent.
//  2. Export every vstore shard into CRC-framed TypeWALSnapshot pages,
//     written to a temp file, fsynced, renamed into place, dir fsynced.
//  3. Atomically replace the MANIFEST (temp + rename + dir fsync). This is
//     the commit point of the snapshot.
//  4. Garbage-collect: delete superseded snapshot files and every whole
//     log segment below each core's mark.
//
// A crash at any point leaves a directory Open recovers from: before 3 the
// old manifest still rules (orphan temp/snapshot files are GC'd later);
// after 3 the new snapshot rules and stale segments merely replay as no-ops.
func (s *Store) Snapshot(vs *vstore.Store) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	marks := make([]uint64, len(s.logs))
	for i, l := range s.logs {
		m, err := l.MarkSnapshot()
		if err != nil {
			return err
		}
		marks[i] = m
	}

	seq := s.snapSeq + 1
	name := snapshotName(seq)
	tmp := filepath.Join(s.dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	var buf []byte
	page := &message.Message{Type: message.TypeWALSnapshot}
	for shard := 0; shard < vs.NumShards(); shard++ {
		if page.State = vs.ExportShard(shard); len(page.State) == 0 {
			continue
		}
		page.Seq = uint64(shard)
		buf = appendFrame(buf[:0], page)
		if _, err := f.Write(buf); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := renameAndSyncDir(tmp, filepath.Join(s.dir, name), s.dir); err != nil {
		return err
	}

	// Commit point: publish the manifest.
	mb, err := json.Marshal(manifest{Snapshot: name, Seq: seq})
	if err != nil {
		return err
	}
	mtmp := filepath.Join(s.dir, manifestName+".tmp")
	if err := writeFileSync(mtmp, mb); err != nil {
		return err
	}
	if err := renameAndSyncDir(mtmp, filepath.Join(s.dir, manifestName), s.dir); err != nil {
		return err
	}
	s.snapSeq = seq

	// GC old snapshots (and orphaned temp files) and truncate the logs.
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		n := e.Name()
		if n == name || n == manifestName || e.IsDir() {
			continue
		}
		if strings.HasPrefix(n, "snapshot-") {
			os.Remove(filepath.Join(s.dir, n))
		}
	}
	for i, l := range s.logs {
		if err := l.TruncateBefore(marks[i]); err != nil {
			return err
		}
	}
	return nil
}

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// renameAndSyncDir renames old to new and fsyncs the containing directory so
// the rename itself is durable.
func renameAndSyncDir(oldPath, newPath, dir string) error {
	if err := os.Rename(oldPath, newPath); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Directory fsync is best-effort on platforms that reject it.
	d.Sync()
	return d.Close()
}

// StartSnapshotter begins periodic snapshots of vs every SnapshotInterval.
// It is a no-op if already started or if the interval is negative.
func (s *Store) StartSnapshotter(vs *vstore.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.snapshotting || s.opts.SnapshotInterval < 0 {
		return
	}
	s.snapshotting = true
	// Snapshot failures are not fatal: the logs keep growing and the next
	// tick retries.
	s.g.Every(s.opts.SnapshotInterval, func() { s.Snapshot(vs) })
}

// SnapshotAsync takes one best-effort snapshot of vs in the background. The
// store owns the goroutine: Close and Crash wait for it, so no snapshot file
// lands after either has returned. A no-op on a closed store.
func (s *Store) SnapshotAsync(vs *vstore.Store) {
	s.g.Go(func(context.Context) { s.Snapshot(vs) })
}

// shutdown marks the store closed, stops the periodic snapshotter and waits
// for every background snapshot to finish. It reports false if the store was
// already closed.
func (s *Store) shutdown() bool {
	s.mu.Lock()
	was := s.closed
	s.closed = true
	s.mu.Unlock()
	if !was {
		s.g.Close()
	}
	return !was
}

// Flush forces every core's pending records to disk (write + fsync).
func (s *Store) Flush() error {
	var first error
	for _, l := range s.logs {
		if err := l.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close gracefully shuts the store down: stop the snapshotter and wait out
// any background snapshot, then flush + fsync + close every log. Safe to
// call more than once.
func (s *Store) Close() error {
	if !s.shutdown() {
		return nil
	}
	var first error
	for _, l := range s.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.ownSched != nil {
		s.ownSched.Stop()
	}
	return first
}

// Crash simulates a process crash: pending buffers are dropped and files
// closed without fsync. See Log.Crash for the fidelity boundary. A
// background snapshot already under way completes first — a crash may land
// after a snapshot as well as before one, and nothing may write to the
// directory once Crash has returned.
func (s *Store) Crash() {
	if !s.shutdown() {
		return
	}
	for _, l := range s.logs {
		l.Crash()
	}
	if s.ownSched != nil {
		s.ownSched.Stop()
	}
}

// Stats aggregates the write counters of every core's log.
func (s *Store) Stats() Stats {
	var out Stats
	for _, l := range s.logs {
		st := l.Stats()
		out.Appends += st.Appends
		out.Syncs += st.Syncs
		out.BytesWritten += st.BytesWritten
		out.Segments += st.Segments
		out.Failures += st.Failures
	}
	return out
}

// Err returns the most recent IO error any core's log has hit, or nil if the
// store has never failed a write, fsync, or rotation. Sticky — see Log.Err.
func (s *Store) Err() error {
	for _, l := range s.logs {
		if err := l.Err(); err != nil {
			return err
		}
	}
	return nil
}
