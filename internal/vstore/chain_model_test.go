package vstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"meerkat/internal/message"
	"meerkat/internal/timestamp"
)

// modelEntry is the reference model the version array is tested against: one
// key's committed state kept the way the store kept it before PR 13 — a
// slice of Versions ascending by WTS, written in place. It is deliberately
// the old code, not a re-derivation, so the two implementations share no
// logic.
type modelEntry struct {
	versions    []Version
	rts         timestamp.Timestamp
	readers     []timestamp.Timestamp
	writers     []timestamp.Timestamp
	baseTrimmed bool
	maxVersions int

	opsMerged, opsRecovered uint64
}

func (e *modelEntry) wts() timestamp.Timestamp {
	if len(e.versions) == 0 {
		return timestamp.Timestamp{}
	}
	return e.versions[len(e.versions)-1].WTS
}

func removeTS(set []timestamp.Timestamp, t timestamp.Timestamp) []timestamp.Timestamp {
	for i := range set {
		if set[i] == t {
			set[i] = set[len(set)-1]
			return set[:len(set)-1]
		}
	}
	return set
}

func (e *modelEntry) read() (Version, bool) {
	if len(e.versions) == 0 {
		return Version{}, false
	}
	return e.versions[len(e.versions)-1], true
}

func (e *modelEntry) snapshotRead(snap timestamp.Timestamp) (Version, timestamp.Timestamp, bool) {
	if e.rts.Less(snap) {
		e.rts = snap
	}
	bound := snap
	for _, w := range e.writers {
		if w.LessEq(snap) && w.Prev().Less(bound) {
			bound = w.Prev()
		}
	}
	for i := len(e.versions) - 1; i >= 0; i-- {
		if e.versions[i].WTS.LessEq(snap) {
			return e.versions[i], bound, true
		}
	}
	if e.baseTrimmed && len(e.versions) > 0 {
		bound = timestamp.Zero
	}
	return Version{}, bound, false
}

func (e *modelEntry) validateRead(readWTS timestamp.Timestamp, readVHash uint64, ts timestamp.Timestamp) bool {
	if readWTS.Less(e.wts()) {
		return false
	}
	h := emptyVHash
	if len(e.versions) > 0 {
		h = message.HashValue(e.versions[len(e.versions)-1].Value)
	}
	if h != readVHash {
		return false
	}
	for _, w := range e.writers {
		if w.Less(ts) {
			return false
		}
	}
	e.readers = append(e.readers, ts)
	return true
}

func (e *modelEntry) validateWrite(ts timestamp.Timestamp) bool {
	if ts.LessEq(e.rts) {
		return false
	}
	for _, r := range e.readers {
		if ts.Less(r) {
			return false
		}
	}
	e.writers = append(e.writers, ts)
	return true
}

func (e *modelEntry) commitRead(ts timestamp.Timestamp) {
	if e.rts.Less(ts) {
		e.rts = ts
	}
	e.readers = removeTS(e.readers, ts)
}

func (e *modelEntry) commitWrite(value []byte, ts timestamp.Timestamp) {
	e.writers = removeTS(e.writers, ts)
	e.insert(Version{Value: value, WTS: ts})
}

func (e *modelEntry) commitOp(kind message.OpKind, delta int64, arg []byte, ts timestamp.Timestamp) {
	e.writers = removeTS(e.writers, ts)
	if !kind.Valid() {
		return
	}
	e.opsMerged++
	if e.insert(Version{WTS: ts, Op: kind, OpDelta: delta, OpArg: arg}) {
		e.opsRecovered++
	}
}

func (e *modelEntry) importState(st message.KeyState) {
	if st.WTS.IsZero() {
		if !st.RTS.IsZero() {
			e.commitRead(st.RTS)
		}
		return
	}
	e.insert(Version{Value: st.Value, WTS: st.WTS})
	e.baseTrimmed = true
	if !st.RTS.IsZero() {
		e.commitRead(st.RTS)
	}
}

// insert is the pre-PR-13 entry.insertLocked, verbatim but for the receiver
// and the dropped publish step.
func (e *modelEntry) insert(v Version) (recovered bool) {
	if !timestamp.Zero.Less(v.WTS) {
		return false
	}
	pos := len(e.versions)
	for pos > 0 && v.WTS.Less(e.versions[pos-1].WTS) {
		pos--
	}
	if pos > 0 && e.versions[pos-1].WTS == v.WTS {
		return false
	}
	if pos == len(e.versions) {
		if v.Op != message.OpNone {
			var prev []byte
			if pos > 0 {
				prev = e.versions[pos-1].Value
			}
			v.Value = message.ApplyOp(nil, prev, v.Op, v.OpDelta, v.OpArg)
		}
		e.versions = append(e.versions, v)
	} else if pos == 0 && e.baseTrimmed && e.versions[0].Op == message.OpNone {
		return false
	} else if v.Op != message.OpNone && pos == 0 && e.baseTrimmed {
		e.recoverPrefix(v.Op, v.OpDelta, v.OpArg)
		return true
	} else {
		if v.Op != message.OpNone {
			var prev []byte
			if pos > 0 {
				prev = e.versions[pos-1].Value
			}
			v.Value = message.ApplyOp(nil, prev, v.Op, v.OpDelta, v.OpArg)
		}
		e.versions = append(e.versions, Version{})
		copy(e.versions[pos+1:], e.versions[pos:])
		e.versions[pos] = v
		for j := pos + 1; j < len(e.versions) && e.versions[j].Op != message.OpNone; j++ {
			e.versions[j].Value = message.ApplyOp(nil, e.versions[j-1].Value,
				e.versions[j].Op, e.versions[j].OpDelta, e.versions[j].OpArg)
		}
	}
	if e.maxVersions > 0 && len(e.versions) > e.maxVersions {
		n := copy(e.versions, e.versions[len(e.versions)-e.maxVersions:])
		e.versions = e.versions[:n]
		e.baseTrimmed = true
	}
	return false
}

// recoverPrefix is the pre-PR-13 entry.recoverPrefixLocked, verbatim.
func (e *modelEntry) recoverPrefix(kind message.OpKind, delta int64, arg []byte) {
	suffixLen := 0
	for j := 0; j < len(e.versions) && e.versions[j].Op != message.OpNone; j++ {
		v := &e.versions[j]
		switch kind {
		case message.OpIncrement:
			base, _ := message.ParseIntValue(v.Value)
			v.Value = message.AppendIntValue(nil, base+delta)
		case message.OpMax:
			if cur, ok := message.ParseIntValue(v.Value); !ok || cur < delta {
				v.Value = message.AppendIntValue(nil, delta)
			}
		case message.OpMin:
			if cur, ok := message.ParseIntValue(v.Value); !ok || cur > delta {
				v.Value = message.AppendIntValue(nil, delta)
			}
		case message.OpAppend:
			if v.Op == message.OpAppend {
				suffixLen += len(v.OpArg)
			}
			cut := len(v.Value) - suffixLen
			if cut < 0 {
				cut = 0
			}
			nv := make([]byte, 0, len(v.Value)+len(arg))
			nv = append(nv, v.Value[:cut]...)
			nv = append(nv, arg...)
			nv = append(nv, v.Value[cut:]...)
			v.Value = nv
		}
	}
}

func sameVersion(a, b Version) bool {
	return a.WTS == b.WTS && a.Op == b.Op && a.OpDelta == b.OpDelta &&
		bytes.Equal(a.Value, b.Value) && bytes.Equal(a.OpArg, b.OpArg)
}

// TestChainMatchesSliceModel drives the store and the slice model with the
// same seeded random single-key histories — plain writes and all four op
// kinds in shuffled arrival order, duplicate replays, state imports
// mid-history, snapshot reads and read/write validations in between — and
// requires every observable to agree after every step.
func TestChainMatchesSliceModel(t *testing.T) {
	const histories = 12000
	for h := 0; h < histories; h++ {
		rng := rand.New(rand.NewSource(int64(h)))
		maxV := []int{-1, 2, 8}[h%3]
		runDifferentialHistory(t, h, rng, maxV)
	}
}

func runDifferentialHistory(t *testing.T, h int, rng *rand.Rand, maxV int) {
	const key = "k"
	s := New(Config{Shards: 1, MaxVersions: maxV})
	m := &modelEntry{maxVersions: maxV}
	step := 0
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("history %d (MaxVersions %d) step %d: %s\nstore: %v\nmodel: %v",
			h, maxV, step, fmt.Sprintf(format, args...), s.Versions(key), m.versions)
	}

	// The committed events: distinct timestamps 1..n, applied in a shuffled
	// order with some replayed later.
	n := 2 + rng.Intn(14)
	events := make([]opEvent, n)
	for i := range events {
		e := opEvent{ts: ts(int64(10 * (i + 1)))}
		switch rng.Intn(6) {
		case 0, 1:
			e.value = []byte(fmt.Sprintf("%d", rng.Intn(100)))
		case 2:
			e.kind, e.delta = message.OpIncrement, int64(rng.Intn(50)-25)
		case 3:
			e.kind, e.delta = message.OpMax, int64(rng.Intn(100))
		case 4:
			e.kind, e.delta = message.OpMin, int64(rng.Intn(100))
		case 5:
			e.kind, e.arg = message.OpAppend, []byte{byte('a' + rng.Intn(26))}
		}
		events[i] = e
	}
	order := rng.Perm(n)
	for i := 0; i < n/3; i++ { // duplicate replays
		order = append(order, order[rng.Intn(n)])
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	importAt := -1
	if rng.Intn(3) == 0 {
		importAt = rng.Intn(len(order))
	}

	check := func() {
		t.Helper()
		got, want := s.Versions(key), m.versions
		if len(got) != len(want) {
			fail("Versions: %d retained, model %d", len(got), len(want))
		}
		for i := range got {
			if !sameVersion(got[i], want[i]) {
				fail("Versions[%d] = %+v, model %+v", i, got[i], want[i])
			}
		}
		gv, gok := s.Read(key)
		wv, wok := m.read()
		if gok != wok || !sameVersion(gv, wv) {
			fail("Read = %+v %v, model %+v %v", gv, gok, wv, wok)
		}
		gw, gr := s.Meta(key)
		if gw != m.wts() || gr != m.rts {
			fail("Meta = (%v, %v), model (%v, %v)", gw, gr, m.wts(), m.rts)
		}
		gm, grec := s.OpStats()
		if gm != m.opsMerged || grec != m.opsRecovered {
			fail("OpStats = (%d, %d), model (%d, %d)", gm, grec, m.opsMerged, m.opsRecovered)
		}
		if e := s.get(key); e != nil && e.baseTrimmed != m.baseTrimmed {
			fail("baseTrimmed = %v, model %v", e.baseTrimmed, m.baseTrimmed)
		}
		gr2, gw2 := s.Pending(key)
		if gr2 != len(m.readers) || gw2 != len(m.writers) {
			fail("Pending = (%d, %d), model (%d, %d)", gr2, gw2, len(m.readers), len(m.writers))
		}
	}

	// Some transactions validate their write long before it commits, so
	// snapshot bounds and read validations see pending writers.
	for _, e := range events {
		if rng.Intn(3) == 0 {
			if g, w := s.ValidateWrite(key, e.ts), m.validateWrite(e.ts); g != w {
				fail("early ValidateWrite(%v) = %v, model %v", e.ts, g, w)
			}
		}
	}
	for i, idx := range order {
		step = i
		if i == importAt {
			st := message.KeyState{Key: key, Value: []byte(fmt.Sprintf("%d", rng.Intn(100))),
				WTS: ts(int64(10*rng.Intn(n+1) + 5)), RTS: ts(int64(rng.Intn(10 * n)))}
			if rng.Intn(4) == 0 {
				st.WTS, st.Value = timestamp.Timestamp{}, nil // rts-only export
			}
			s.ImportState([]message.KeyState{st})
			m.importState(st)
			check()
		}
		// Interleaved reads: a snapshot somewhere in the history (raising
		// rts), and a read validation against what Read returned or against
		// a stale version.
		if rng.Intn(3) == 0 {
			snap := timestamp.Timestamp{Time: int64(rng.Intn(10*n + 10)), ClientID: uint64(rng.Intn(3))}
			gv, gb, gok := s.SnapshotRead(key, snap)
			wv, wb, wok := m.snapshotRead(snap)
			if gok != wok || gb != wb || !sameVersion(gv, wv) {
				fail("SnapshotRead(%v) = %+v bound %v %v, model %+v bound %v %v", snap, gv, gb, gok, wv, wb, wok)
			}
		}
		if rng.Intn(3) == 0 {
			v, _ := s.Read(key)
			readWTS, vhash := v.WTS, message.HashValue(v.Value)
			switch rng.Intn(8) {
			case 0, 1:
				readWTS = ts(int64(10 * rng.Intn(n+1))) // possibly stale
			case 2:
				vhash++ // the value read is no longer the version's value
			}
			at := timestamp.Timestamp{Time: int64(rng.Intn(10*n + 10)), ClientID: 7}
			g, w := s.ValidateRead(key, readWTS, vhash, at), m.validateRead(readWTS, vhash, at)
			if g != w {
				fail("ValidateRead(%v, %v) = %v, model %v", readWTS, at, g, w)
			}
			if g {
				switch rng.Intn(3) {
				case 0:
					s.CommitRead(key, at)
					m.commitRead(at)
				case 1:
					s.RemoveReader(key, at)
					m.readers = removeTS(m.readers, at)
				} // else the reader stays pending and blocks writes below it
			}
		}

		// The commit itself, usually preceded by its write validation (whose
		// verdict the commit ignores, as a slow-path or replayed commit does).
		e := events[idx]
		if rng.Intn(2) == 0 {
			g, w := s.ValidateWrite(key, e.ts), m.validateWrite(e.ts)
			if g != w {
				fail("ValidateWrite(%v) = %v, model %v", e.ts, g, w)
			}
		}
		if e.kind == message.OpNone {
			s.CommitWrite(key, e.value, e.ts)
			m.commitWrite(e.value, e.ts)
		} else {
			s.CommitOp(key, e.kind, e.delta, e.arg, e.ts)
			m.commitOp(e.kind, e.delta, e.arg, e.ts)
		}
		check()
	}
}
