// Package wal is Meerkat's durability subsystem: a zero-coordination-
// principle-compliant persistence layer in which every replica core appends
// commit records to its own write-ahead log — no shared log, the same
// partitioning argument as the in-memory trecord — while a group-commit
// stage batches fsyncs off the hot path and a snapshotter periodically
// serializes the versioned store and truncates the logs behind it.
//
// Layout on disk, per replica:
//
//	<dir>/
//	  MANIFEST                  current snapshot pointer (JSON, atomic rename)
//	  snapshot-<seq>.snap       CRC-framed vstore snapshot pages
//	  core-<id>/seg-<n>.wal     CRC-framed commit records, one dir per core
//
// Every file is a sequence of frames:
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// where the payload is the pooled internal/message binary encoding of a
// Message (TypeWALRecord in logs, TypeWALSnapshot in snapshot files). Replay
// consumes the longest valid prefix: a frame whose length overruns the file
// or whose checksum mismatches ends replay cleanly — the torn tail a crash
// mid-write leaves behind — and reopening for append truncates the tail so
// the log never accumulates garbage between valid records.
//
// Crash-restart recovery replays the local snapshot plus logs (commit
// records are idempotent: version installs follow the Thomas write rule and
// rts advancement is monotone) and reports a watermark, so the caller can
// fall back to the existing epoch-change state transfer for just the delta.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/message"
	"meerkat/internal/timestamp"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy uint8

const (
	// SyncBatch (default) buffers appends and lets the group-commit
	// goroutine write+fsync them every GroupCommitInterval — commit
	// acknowledgement is decoupled from disk latency, bounded data loss on
	// a whole-machine crash.
	SyncBatch SyncPolicy = iota
	// SyncNone never fsyncs (the OS flushes at its leisure). Survives
	// process crashes, not machine crashes.
	SyncNone
	// SyncAlways writes and fsyncs inside every append, before the commit
	// is applied to the store — full single-replica durability, at disk
	// latency on the commit path.
	SyncAlways
)

// String names the policy as accepted by command-line flags.
func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncNone:
		return "none"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("sync(%d)", uint8(p))
}

// ParseSyncPolicy parses "none", "batch", or "always".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none":
		return SyncNone, nil
	case "batch", "":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	}
	return SyncBatch, fmt.Errorf("wal: unknown sync policy %q (want none|batch|always)", s)
}

// Options tunes a Store and its per-core logs. The zero value applies the
// documented defaults.
type Options struct {
	// Sync is the fsync policy. Default SyncBatch.
	Sync SyncPolicy
	// GroupCommitInterval is the SyncBatch fsync cadence (also the write
	// drain cadence under SyncNone). Default 2ms.
	GroupCommitInterval time.Duration
	// Scheduler, when set, drives group commit for every log opened with
	// these options instead of a private per-store scheduler. Sharing one
	// scheduler across the stores that live on the same filesystem batches
	// their fsyncs into one journal commit per tick (see Scheduler). The
	// caller keeps ownership and must Stop it after the stores close.
	Scheduler *Scheduler
	// SnapshotInterval is how often Store.StartSnapshotter serializes the
	// versioned store and truncates logs behind it. Default 30s.
	SnapshotInterval time.Duration
	// MaxSegmentBytes rotates a core's active log segment once it exceeds
	// this size; whole segments behind the latest snapshot are deleted at
	// truncation. Default 64 MiB.
	MaxSegmentBytes int64
	// Clock paces group commit and the snapshotter, and stamps what the
	// replayed store applies. Nil means the machine's.
	Clock clock.Clock
}

func (o *Options) fill() {
	if o.GroupCommitInterval == 0 {
		o.GroupCommitInterval = 2 * time.Millisecond
	}
	if o.SnapshotInterval == 0 {
		o.SnapshotInterval = 30 * time.Second
	}
	if o.MaxSegmentBytes == 0 {
		o.MaxSegmentBytes = 64 << 20
	}
}

// castagnoli is the CRC-32C table used for frame checksums (hardware-
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeader is the per-frame overhead: u32 payload length + u32 CRC-32C.
const frameHeader = 8

// flushHighWater is the pending-buffer size past which an append kicks the
// group-commit scheduler instead of waiting for its next tick. It is a
// memory backstop for when the disk falls behind the append rate, so it is
// sized to a few ticks' worth of records under heavy load, not to fire on
// every burst (each early kick is an extra journal commit).
const flushHighWater = 256 << 10

// maxRetainedBuffer bounds the capacity a drained pending buffer may carry
// back for reuse, so one burst does not pin memory forever.
const maxRetainedBuffer = 4 << 20

// Scheduler is the group-commit driver for a set of logs: one goroutine
// that, every GroupCommitInterval, makes two passes over the registered
// logs — first writing every pending buffer to its file, then fsyncing the
// dirty files back-to-back. The two-pass order is what makes per-core logs
// affordable on one filesystem: the first fsync's journal commit already
// carries the data just written to every other log, so the remaining fsyncs
// find almost nothing left to flush. Independent per-log fsync loops (the
// previous design) each paid a full journal commit — with R replicas × C
// cores on one disk that is R·C commits per tick, and the resulting
// journal-commit storm starves the CPU and collapses goodput long before
// the commit path ever waits on a lock.
//
// A store with no Options.Scheduler gets a private one (its cores still
// batch with each other); a cluster hosting several replicas in one process
// should share a single scheduler across them.
type Scheduler struct {
	mu      sync.Mutex
	logs    []*Log
	scratch []*Log // reused snapshot of logs for lock-free passes

	g    *clock.Group // the ticking goroutine; Stop joins it
	kick func()       // wakes it ahead of its tick (high-water backstop)
}

// NewScheduler starts a group-commit scheduler ticking every interval
// (default 2ms) on clk (nil: the machine's clock). Stop it after every log
// registered with it has closed.
func NewScheduler(interval time.Duration, clk clock.Clock) *Scheduler {
	if interval <= 0 {
		interval = 2 * time.Millisecond
	}
	s := &Scheduler{g: clock.NewGroup(clk)}
	s.kick = s.g.Every(interval, s.pass)
	return s
}

func (s *Scheduler) register(l *Log) {
	s.mu.Lock()
	s.logs = append(s.logs, l)
	s.mu.Unlock()
}

func (s *Scheduler) unregister(l *Log) {
	s.mu.Lock()
	for i, o := range s.logs {
		if o == l {
			s.logs = append(s.logs[:i], s.logs[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// pass is one group commit: the write pass, then the sync pass.
func (s *Scheduler) pass() {
	s.mu.Lock()
	logs := append(s.scratch[:0], s.logs...)
	s.mu.Unlock()
	for _, l := range logs {
		l.flush(false)
	}
	for _, l := range logs {
		if l.opts.Sync == SyncBatch {
			l.syncOnly()
		}
	}
	s.mu.Lock()
	s.scratch = logs[:0]
	s.mu.Unlock()
}

// Stop ends the scheduler and returns once its goroutine has. Pending records
// are not flushed — close the logs first (Log.Close flushes and fsyncs on its
// own).
func (s *Scheduler) Stop() { s.g.Close() }

// appendFrame appends one CRC frame carrying the encoding of m to buf.
func appendFrame(buf []byte, m *message.Message) []byte {
	start := len(buf)
	var hdr [frameHeader]byte
	buf = append(buf, hdr[:]...)
	buf = message.Encode(buf, m)
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// validPrefix walks the frames of buf, calling fn for each valid payload,
// and returns the byte length of the longest valid prefix plus whether the
// walk ended at a torn/corrupt frame (rather than exactly at EOF). fn errors
// abort the walk and are returned verbatim.
func validPrefix(buf []byte, fn func(payload []byte) error) (n int64, torn bool, err error) {
	off := 0
	for off < len(buf) {
		if off+frameHeader > len(buf) {
			return int64(off), true, nil
		}
		// The length is bounds-checked in uint64 space: on 32-bit platforms a
		// corrupt length >= 2^31 must end replay as a torn tail, not convert
		// to a negative int and slip past the check into a slicing panic.
		ln64 := uint64(binary.LittleEndian.Uint32(buf[off:]))
		crc := binary.LittleEndian.Uint32(buf[off+4:])
		if ln64 == 0 || ln64 > uint64(len(buf)-off-frameHeader) {
			// Zero-length frames are invalid by construction (an empty
			// payload cannot decode), which also rejects preallocated
			// zero regions.
			return int64(off), true, nil
		}
		ln := int(ln64)
		payload := buf[off+frameHeader : off+frameHeader+ln]
		if crc32.Checksum(payload, castagnoli) != crc {
			return int64(off), true, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return int64(off), false, err
			}
		}
		off += frameHeader + ln
	}
	return int64(off), false, nil
}

// Stats is a point-in-time aggregate of a log's (or a whole Store's) write
// activity. FsyncsPerTxn in benchmarks is Syncs / committed transactions.
// A non-zero Failures means disk IO has failed at least once: buffered
// records are retained and retried, but durability is degraded until the
// count stops advancing (see Log.Err for the latest error).
type Stats struct {
	Appends      uint64 // records appended
	Syncs        uint64 // fsync calls issued
	BytesWritten uint64 // bytes handed to the file
	Segments     uint64 // segment rotations (incl. snapshot marks)
	Failures     uint64 // write/fsync/rotate errors (sticky signal, see Err)
}

// Log is one core's append-only segmented log. Appends come from the core's
// delivery goroutine (plus the cold preload path); writes, fsyncs, rotation,
// and truncation are serialized by an internal writer lock, so the group-
// commit goroutine and snapshotter never block an append for longer than a
// buffer swap.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex // guards pending, scratch, closed, apply ordering
	pending []byte
	scratch message.Message
	closed  bool

	// apply, when set (SetApply), is invoked by AppendCommit to install the
	// record's effects in the versioned store, atomically with the append
	// with respect to the group-commit drain. This pairing is what makes
	// snapshot truncation safe: a record can never sit in a pre-snapshot-mark
	// segment with its effects not yet visible to the snapshot's export.
	apply func(txn *message.Txn, ts timestamp.Timestamp)

	wmu   sync.Mutex // serializes file IO: write, sync, rotate, truncate
	f     *os.File
	seg   uint64 // active segment number
	size  int64  // active segment size
	dirty bool   // bytes written since last fsync
	spare []byte // drained buffer kept for reuse (wmu)

	appends  atomic.Uint64
	syncs    atomic.Uint64
	written  atomic.Uint64
	rotates  atomic.Uint64
	failures atomic.Uint64

	errMu   sync.Mutex
	lastErr error // latest IO failure (sticky until read via Err)
}

// segName formats a segment file name; segment numbers start at 1.
func segName(n uint64) string { return fmt.Sprintf("seg-%08d.wal", n) }

// parseSeg inverts segName; ok is false for foreign files.
func parseSeg(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return n, true
}

// segments lists the segment numbers present in dir, ascending.
func segments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range ents {
		if n, ok := parseSeg(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// ReplayStats reports what openLog recovered from disk.
type ReplayStats struct {
	Records   int                 // valid commit records replayed
	Torn      bool                // replay ended at a torn/corrupt frame
	Watermark timestamp.Timestamp // max commit timestamp replayed
}

// openLog opens (creating if needed) the log in dir, replays every valid
// record through apply in append order, truncates any torn tail, and leaves
// the log positioned for appending. Segments after a torn frame are
// discarded: a record may never be replayed while an earlier one is lost.
// opts.Scheduler drives the log's group commit and must be set (Open
// supplies its store's).
func openLog(dir string, opts Options, apply func(m *message.Message) error) (*Log, ReplayStats, error) {
	opts.fill()
	var stats ReplayStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, err
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, stats, err
	}

	l := &Log{dir: dir, opts: opts}

	active := uint64(1)
	activeSize := int64(0)
	for i, seg := range segs {
		path := filepath.Join(dir, segName(seg))
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, stats, err
		}
		n, torn, err := validPrefix(buf, func(payload []byte) error {
			// A fresh message per frame, never released: apply retains the
			// decoded values (replay loads them into the store), which are
			// spans of the message's arena — the collector's, this way, where
			// a recycled target's would be overwritten by the next frame.
			dec := &message.Message{}
			// The type first: a record from before a layout change is refused as such.
			err := message.DecodeInto(dec, payload)
			if dec.Type != message.TypeWALRecord {
				return fmt.Errorf("wal: %s: unexpected record type %v", path, dec.Type)
			}
			if err != nil {
				return fmt.Errorf("wal: %s: %w", path, err)
			}
			if err := apply(dec); err != nil {
				return err
			}
			stats.Records++
			if stats.Watermark.Less(dec.TS) {
				stats.Watermark = dec.TS
			}
			return nil
		})
		if err != nil {
			return nil, stats, err
		}
		active, activeSize = seg, n
		if torn {
			stats.Torn = true
			if err := os.Truncate(path, n); err != nil {
				return nil, stats, err
			}
			// Later segments would replay records past a lost one; drop
			// them so the log stays a valid prefix of history.
			for _, later := range segs[i+1:] {
				if err := os.Remove(filepath.Join(dir, segName(later))); err != nil {
					return nil, stats, err
				}
			}
			break
		}
	}

	f, err := os.OpenFile(filepath.Join(dir, segName(active)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, stats, err
	}
	l.f, l.seg, l.size = f, active, activeSize
	l.opts.Scheduler.register(l)
	return l, stats, nil
}

// SetApply registers the function AppendCommit uses to install a record's
// effects in the versioned store. Set it once, before the first append (the
// replica wires it at construction); a nil apply leaves AppendCommit as a
// pure append, for tests and tools that replay by hand.
func (l *Log) SetApply(fn func(txn *message.Txn, ts timestamp.Timestamp)) {
	l.mu.Lock()
	l.apply = fn
	l.mu.Unlock()
}

// AppendCommit appends one committed transaction's record — its identity,
// read set (for rts advancement on replay), write set, and commit timestamp —
// and, when an apply function is registered, installs the record's effects in
// the versioned store before returning. Under SyncBatch/SyncNone it returns
// after buffering (zero allocations steady-state); under SyncAlways only once
// the record is fsynced (write-ahead order: durable before observable).
//
// The append and the apply are atomic with respect to the group-commit drain
// and the snapshot mark: a record is never moved into a segment the snapshot
// protocol may truncate while its effects are still invisible to the store
// export. Without this pairing a snapshot could flush the record into a
// pre-mark segment, export the store before the apply lands, and then
// truncate the record's only durable copy — permanently losing a committed
// transaction. On IO failure the apply still runs (the in-memory protocol
// must proceed); the error is latched (Err, Stats.Failures) and the frames
// are retained for retry.
func (l *Log) AppendCommit(txn *message.Txn, ts timestamp.Timestamp) {
	if l.opts.Sync == SyncAlways {
		l.appendCommitSync(txn, ts)
		return
	}
	l.mu.Lock()
	appended := false
	if !l.closed {
		l.encodeLocked(txn, ts)
		appended = true
	}
	// Apply inside the same critical section the drain swaps buffers under
	// (see the comment on the apply field). A record arriving after Close
	// is not logged but is still applied, so the store never diverges from
	// the trecord during shutdown races.
	if l.apply != nil {
		l.apply(txn, ts)
	}
	high := len(l.pending) >= flushHighWater
	l.mu.Unlock()
	if appended {
		l.appends.Add(1)
		if high {
			l.kick()
		}
	}
}

// appendCommitSync is the SyncAlways path: encode, write+fsync, then apply,
// all under the writer lock so the snapshot mark (which also takes it) can
// never observe the record on disk with its effects missing from the store.
func (l *Log) appendCommitSync(txn *message.Txn, ts timestamp.Timestamp) {
	l.wmu.Lock()
	l.mu.Lock()
	appended := !l.closed
	if appended {
		l.encodeLocked(txn, ts)
	}
	apply := l.apply // read under mu; invoked below without it (see field doc)
	l.mu.Unlock()
	if appended {
		// Errors are latched by flushWLocked; the commit proceeds regardless
		// (degraded durability is surfaced via Err/Stats, not by stalling
		// the replica).
		l.flushWLocked(true)
	}
	if apply != nil {
		apply(txn, ts)
	}
	l.wmu.Unlock()
	if appended {
		l.appends.Add(1)
	}
}

// encodeLocked frames one commit record into the pending buffer. Caller
// holds l.mu.
func (l *Log) encodeLocked(txn *message.Txn, ts timestamp.Timestamp) {
	l.scratch.Type = message.TypeWALRecord
	l.scratch.Txn.ID = txn.ID
	l.scratch.Txn.ReadSet = txn.ReadSet
	l.scratch.Txn.WriteSet = txn.WriteSet
	l.scratch.Txn.OpSet = txn.OpSet
	l.scratch.TS = ts
	l.pending = appendFrame(l.pending, &l.scratch)
	// Drop the aliases so the log does not pin the transaction's sets
	// until the next append.
	l.scratch.Txn.ReadSet = nil
	l.scratch.Txn.WriteSet = nil
	l.scratch.Txn.OpSet = nil
}

// AppendLoad records a bulk-load install (Cluster.Load bypasses the
// transaction protocol, so its writes need their own durability path).
func (l *Log) AppendLoad(key string, value []byte, ts timestamp.Timestamp) {
	txn := message.Txn{WriteSet: []message.WriteSetEntry{{Key: key, Value: value}}}
	l.AppendCommit(&txn, ts)
}

// kick wakes the group-commit scheduler ahead of its tick.
func (l *Log) kick() { l.opts.Scheduler.kick() }

// syncOnly fsyncs the active segment if bytes were written since the last
// sync — the scheduler's second pass, after every registered log's pending
// buffer has been written.
func (l *Log) syncOnly() {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.f == nil || !l.dirty {
		return
	}
	if err := fileSync(l.f); err != nil {
		// The frames are in the file (dirty stays true); the next syncing
		// pass retries.
		l.fail(err)
		return
	}
	l.dirty = false
	l.syncs.Add(1)
}

// flush drains the pending buffer into the active segment, optionally
// fsyncing, and rotates the segment when it exceeds MaxSegmentBytes.
func (l *Log) flush(sync bool) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	return l.flushWLocked(sync)
}

// flushWLocked is flush with l.wmu held. IO failures never drop records:
// unwritten bytes are requeued ahead of newer appends (the next tick — or an
// explicit Flush — retries) and the error is latched so callers that ignore
// the return value still leave a sticky, observable signal (Err,
// Stats.Failures) instead of silently acknowledging lost durability.
func (l *Log) flushWLocked(sync bool) error {
	l.mu.Lock()
	buf := l.pending
	if len(buf) > 0 {
		// Swap in the spare so appends never wait on IO. An empty tick
		// must NOT swap: it would steal the pending buffer's capacity and
		// force the next append to reallocate it.
		l.pending = l.spare[:0]
		l.spare = nil
	} else {
		buf = nil
	}
	l.mu.Unlock()

	if l.f == nil {
		// Closed, or a failed rotation left no active segment: keep the
		// drained records queued so a later flush can still write them.
		l.requeue(buf, 0)
		return os.ErrClosed
	}
	if len(buf) > 0 {
		n, werr := l.f.Write(buf)
		if n > 0 {
			l.size += int64(n)
			l.written.Add(uint64(n))
			l.dirty = true
		}
		if werr != nil {
			// Requeue the unwritten tail. A short write may end mid-frame;
			// the segment is append-only, so the requeued bytes complete
			// that frame on the next successful flush.
			l.requeue(buf, n)
			l.fail(werr)
			return werr
		}
	}
	var err error
	if sync && l.dirty {
		if serr := fileSync(l.f); serr != nil {
			// The frames are in the file (dirty stays true); the next
			// syncing flush retries the fsync.
			l.fail(serr)
			err = serr
		} else {
			l.dirty = false
			l.syncs.Add(1)
		}
	}
	if buf != nil && cap(buf) <= maxRetainedBuffer {
		l.spare = buf[:0]
	}
	if err == nil && l.size >= l.opts.MaxSegmentBytes {
		if err = l.rotateWLocked(); err != nil {
			l.fail(err)
		}
	}
	return err
}

// requeue puts the unwritten suffix buf[n:] of a drained buffer back at the
// FRONT of pending, preserving record order relative to appends that arrived
// during the failed flush. Error path only; the copy is deliberate (buf may
// be retained as the spare).
func (l *Log) requeue(buf []byte, n int) {
	if n >= len(buf) {
		return
	}
	rest := buf[n:]
	l.mu.Lock()
	np := make([]byte, 0, len(rest)+len(l.pending))
	np = append(np, rest...)
	np = append(np, l.pending...)
	l.pending = np
	l.mu.Unlock()
}

// fail latches an IO error: Failures counts every occurrence, lastErr keeps
// the most recent one for Err.
func (l *Log) fail(err error) {
	l.failures.Add(1)
	l.errMu.Lock()
	l.lastErr = err
	l.errMu.Unlock()
}

// Err returns the most recent IO error the log has hit (write, fsync, or
// rotate), or nil if none ever occurred. The error is sticky: a log that
// failed once stays reportable even after later flushes succeed, because
// records acknowledged during the failure window may not be durable.
func (l *Log) Err() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.lastErr
}

// rotateWLocked seals the active segment (fsynced unless SyncNone) and opens
// the next one. Caller holds l.wmu.
func (l *Log) rotateWLocked() error {
	if l.opts.Sync != SyncNone && l.dirty {
		if err := fileSync(l.f); err != nil {
			return err
		}
		l.dirty = false
		l.syncs.Add(1)
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.seg++
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.f = nil
		return err
	}
	l.f, l.size = f, 0
	l.rotates.Add(1)
	return nil
}

// MarkSnapshot flushes pending records and rotates to a fresh segment,
// returning its number: the first segment replay must consume after the
// snapshot being taken. Segments below it are deletable once the snapshot
// is durable (TruncateBefore).
func (l *Log) MarkSnapshot() (uint64, error) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if err := l.flushWLocked(l.opts.Sync != SyncNone); err != nil {
		return l.seg, err
	}
	if l.size == 0 {
		return l.seg, nil // active segment is empty; it is its own mark
	}
	if err := l.rotateWLocked(); err != nil {
		return l.seg, err
	}
	return l.seg, nil
}

// TruncateBefore deletes whole segments numbered below seg — the log-
// truncation half of the snapshot protocol.
func (l *Log) TruncateBefore(seg uint64) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	segs, err := segments(l.dir)
	if err != nil {
		return err
	}
	for _, n := range segs {
		if n >= seg {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, segName(n))); err != nil {
			return err
		}
	}
	return nil
}

// Flush forces pending records to disk (write + fsync) regardless of policy.
func (l *Log) Flush() error { return l.flush(true) }

// Close gracefully shuts the log down: detach from the group-commit
// scheduler, flush and fsync everything pending, close the file.
func (l *Log) Close() error {
	l.stopRun()
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	err := l.flush(true)
	l.wmu.Lock()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	l.wmu.Unlock()
	return err
}

// Crash simulates a process crash: the user-space pending buffer is dropped
// (as it would be) and the file is closed without fsync. Bytes already
// written reach disk at the OS's leisure — the fidelity boundary of an
// in-process simulation.
func (l *Log) Crash() {
	l.stopRun()
	l.mu.Lock()
	l.closed = true
	l.pending = nil
	l.mu.Unlock()
	l.wmu.Lock()
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	l.wmu.Unlock()
}

func (l *Log) stopRun() { l.opts.Scheduler.unregister(l) }

// Stats returns the log's cumulative write counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:      l.appends.Load(),
		Syncs:        l.syncs.Load(),
		BytesWritten: l.written.Load(),
		Segments:     l.rotates.Load(),
		Failures:     l.failures.Load(),
	}
}
