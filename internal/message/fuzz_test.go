package message

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"meerkat/internal/timestamp"
)

// randomMessage builds a message of a random type number, named or not, with
// fuzzer-chosen values and sizes in every field of its type's row and nothing
// outside it.
func randomMessage(rng *rand.Rand) *Message {
	rstr := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	rbytes := func() []byte {
		if rng.Intn(3) == 0 {
			return nil
		}
		b := make([]byte, 1+rng.Intn(16))
		rng.Read(b)
		return b
	}
	rts := func() timestamp.Timestamp {
		return timestamp.Timestamp{Time: rng.Int63n(1 << 30), ClientID: uint64(rng.Intn(64))}
	}
	rtxn := func() Txn {
		t := Txn{ID: timestamp.TxnID{Seq: rng.Uint64() % 1000, ClientID: uint64(rng.Intn(16))}}
		for i := rng.Intn(4); i > 0; i-- {
			t.ReadSet = append(t.ReadSet, ReadSetEntry{Key: rstr(), WTS: rts()})
		}
		for i := rng.Intn(4); i > 0; i-- {
			t.WriteSet = append(t.WriteSet, WriteSetEntry{Key: rstr(), Value: rbytes()})
		}
		for i := rng.Intn(4); i > 0; i-- {
			t.OpSet = append(t.OpSet, OpSetEntry{
				Key:   rstr(),
				Kind:  OpKind(1 + rng.Intn(int(OpMin))),
				Delta: rng.Int63n(1<<40) - (1 << 39),
				Arg:   rbytes(),
			})
		}
		return t
	}
	m := &Message{Type: Type(rng.Intn(int(TypeWALSnapshot) + 1))}
	row := layout[m.Type]
	has := func(f field) bool { return row&f != 0 }
	if has(fSrc) {
		m.Src = Addr{Node: uint32(rng.Intn(300)), Core: uint32(rng.Intn(8))}
	}
	if has(fTxn) {
		m.Txn = rtxn()
	}
	if has(fTID) {
		m.TID = timestamp.TxnID{Seq: rng.Uint64() % 1000, ClientID: 5}
	}
	if has(fTS) {
		m.TS = rts()
	}
	if has(fStatus) {
		m.Status = Status(rng.Intn(int(StatusAborted) + 1))
	}
	if has(fView) {
		m.View = rng.Uint64() % 100
	}
	if has(fCoreID) {
		m.CoreID = uint32(rng.Intn(8))
	}
	if has(fKey) {
		m.Key = rstr()
	}
	if has(fValue) {
		m.Value = rbytes()
	}
	if has(fOK) {
		m.OK = rng.Intn(2) == 0
	}
	if has(fEpoch) {
		m.Epoch = rng.Uint64() % 100
	}
	for i := rng.Intn(3); has(fRecords) && i > 0; i-- {
		m.Records = append(m.Records, TRecordEntry{
			Txn: rtxn(), TS: rts(), Status: StatusCommitted,
			View: rng.Uint64() % 10, AcceptView: rng.Uint64() % 10, CoreID: uint32(rng.Intn(8)),
		})
	}
	if has(fSeq) {
		m.Seq = rng.Uint64() % 100
	}
	for i := rng.Intn(3); has(fState) && i > 0; i-- {
		m.State = append(m.State, KeyState{Key: rstr(), Value: rbytes(), WTS: rts(), RTS: rts()})
	}
	if has(fReplicaID) {
		m.ReplicaID = uint32(rng.Intn(3))
	}
	for i := rng.Intn(4); has(fKeys) && i > 0; i-- {
		m.Keys = append(m.Keys, rstr())
	}
	for i := rng.Intn(4); has(fReads) && i > 0; i-- {
		m.Reads = append(m.Reads, ReadResult{
			Value: rbytes(), WTS: rts(), OK: rng.Intn(2) == 0,
			Op: OpKind(rng.Intn(int(OpMin) + 1)),
		})
	}
	if has(fWatermark) && rng.Intn(2) == 0 {
		m.Watermark = rts()
	}
	if has(fRoute) {
		m.MapVersion, m.WrongShard = rng.Uint64()%10, rng.Intn(4) == 0
	}
	return m
}

// everyType returns one randomMessage of each named type.
func everyType(rng *rand.Rand) []*Message {
	var ms []*Message
	for n := range typeNames {
		if typeNames[n] == "" {
			continue
		}
		m := randomMessage(rng)
		for m.Type != Type(n) {
			m = randomMessage(rng)
		}
		ms = append(ms, m)
	}
	return ms
}

// TestDecodeTruncatedPrefixes asserts that decoding ANY strict prefix of a
// valid encoding fails with an ErrTruncated-class error — never a panic,
// never a silent success — across a corpus of random messages.
func TestDecodeTruncatedPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		buf := Encode(nil, randomMessage(rng))
		for n := 0; n < len(buf); n++ {
			_, err := Decode(buf[:n])
			if err == nil {
				t.Fatalf("msg %d: decode of %d/%d-byte prefix succeeded", i, n, len(buf))
			}
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("msg %d: prefix %d/%d: err = %v, want ErrTruncated", i, n, len(buf), err)
			}
		}
	}
}

// TestDecodeCorruptedBytes flips each byte of a corpus of encodings and
// asserts Decode never panics; if it succeeds (the flip landed in a value
// byte, or produced a non-canonical varint), the decoded message must still
// round-trip at the value level.
func TestDecodeCorruptedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		buf := Encode(nil, randomMessage(rng))
		for off := 0; off < len(buf); off++ {
			corrupt := append([]byte(nil), buf...)
			corrupt[off] ^= 0xFF
			m, err := Decode(corrupt)
			if err != nil {
				continue
			}
			m2, err := Decode(Encode(nil, m))
			if err != nil {
				t.Fatalf("msg %d: byte %d: re-decode of decoded corrupt message failed: %v", i, off, err)
			}
			if !same(m, m2) {
				t.Fatalf("msg %d: byte %d: corrupted decode does not round-trip", i, off)
			}
		}
	}
}

// TestDecodeHugeLengthPrefix plants an absurd uvarint length where the key
// length belongs and asserts Decode fails cheaply instead of attempting the
// multi-gigabyte allocation the prefix claims.
func TestDecodeHugeLengthPrefix(t *testing.T) {
	m := &Message{Type: TypePut, Key: "abc"}
	buf := Encode(nil, m)
	// Locate the key's length-prefixed bytes (0x03 'a' 'b' 'c') and replace
	// the 1-byte length with a 5-byte uvarint claiming ~17 GiB.
	pat := []byte{3, 'a', 'b', 'c'}
	idx := -1
	for i := 0; i+len(pat) <= len(buf); i++ {
		if string(buf[i:i+len(pat)]) == string(pat) {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("key bytes not found in encoding")
	}
	evil := append([]byte(nil), buf[:idx]...)
	evil = append(evil, 0xFF, 0xFF, 0xFF, 0xFF, 0x3F) // uvarint ≈ 1.7e10
	evil = append(evil, buf[idx+1:]...)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Decode(evil); err == nil {
			t.Fatal("decode with huge length prefix succeeded")
		}
	})
	// One Message and its arena per run are expected; the claimed 17 GiB is not.
	if allocs > 4 {
		t.Fatalf("decode of corrupt length prefix allocated %v objects/op", allocs)
	}
}

// countPrefixes names every repeated field of the format: a type whose row
// carries it, how to give a minimal message of that type one zeroed element of
// it, the least one element takes on the wire, and how many the decoded
// message holds.
var countPrefixes = []struct {
	name string
	typ  Type
	one  func(*Message)
	min  int
	n    func(*Message) int
}{
	{"Txn.ReadSet", TypeValidate, func(m *Message) { m.Txn.ReadSet = make([]ReadSetEntry, 1) }, minRead,
		func(m *Message) int { return len(m.Txn.ReadSet) }},
	{"Txn.WriteSet", TypeValidate, func(m *Message) { m.Txn.WriteSet = make([]WriteSetEntry, 1) }, minWrite,
		func(m *Message) int { return len(m.Txn.WriteSet) }},
	{"Txn.OpSet", TypeValidate, func(m *Message) { m.Txn.OpSet = make([]OpSetEntry, 1) }, minOp,
		func(m *Message) int { return len(m.Txn.OpSet) }},
	{"Records", TypeEpochChangeComplete, func(m *Message) { m.Records = make([]TRecordEntry, 1) }, minRecord,
		func(m *Message) int { return len(m.Records) }},
	{"State", TypeStateReply, func(m *Message) { m.State = make([]KeyState, 1) }, minKeyState,
		func(m *Message) int { return len(m.State) }},
	{"Keys", TypeMultiRead, func(m *Message) { m.Keys = make([]string, 1) }, minKey,
		func(m *Message) int { return len(m.Keys) }},
	{"Reads", TypeMultiReadReply, func(m *Message) { m.Reads = make([]ReadResult, 1) }, minResult,
		func(m *Message) int { return len(m.Reads) }},
}

// TestDecodeHugeCountPrefix plants, in a datagram of the largest size, the
// largest count the decoder used to admit — one element per byte left — where
// each repeated field's count belongs, and asserts the decode fails before it
// sizes an array by it: a count is bounded by what its elements occupy on the
// wire, so the bytes a decode allocates stay within twice the datagram (its
// arena and change), where 65 000 records of 136 B were 8.8 MB.
func TestDecodeHugeCountPrefix(t *testing.T) {
	const datagram = 64 << 10
	for _, f := range countPrefixes {
		// The table is right: the count sits where a minimal message's and
		// the same message with one zeroed element first differ, and that
		// element takes exactly the least size, and decodes.
		empty := Encode(nil, &Message{Type: f.typ})
		m := &Message{Type: f.typ}
		f.one(m)
		one := Encode(nil, m)
		off := 0
		for off < len(empty) && empty[off] == one[off] {
			off++
		}
		if off == len(empty) || len(one)-len(empty) != f.min {
			t.Fatalf("%s: one zeroed element adds %d bytes at offset %d, want %d", f.name, len(one)-len(empty), off, f.min)
		}
		if m, err := Decode(one); err != nil || f.n(m) != 1 {
			t.Fatalf("%s: one minimal element at offset %d: %v", f.name, off, err)
		}

		left := datagram - off - 3 // a count this size takes three bytes
		count := left
		if f.min == 1 {
			count++ // one byte each is the old rule: only more than fit is corrupt
		}
		evil := binary.AppendUvarint(append([]byte(nil), empty[:off]...), uint64(count))
		evil = append(evil, make([]byte, datagram-len(evil))...)
		var before, after runtime.MemStats
		const runs = 10
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := Decode(evil); !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s: decode with a count of %d: %v, want ErrTruncated", f.name, count, err)
			}
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 2*datagram {
			t.Errorf("%s: a corrupt count of %d made the decode allocate %d bytes for a %d-byte datagram",
				f.name, count, got, datagram)
		}
	}
}

// FuzzDecode is the codec-hardening fuzz target: arbitrary bytes must never
// panic the decoder, and anything that decodes must round-trip exactly. It is
// differential too: every input is also decoded into one long-lived message
// recycled through the pool between inputs, which must agree with the fresh
// Decode field by field, and the body taken out of it must not change while
// the next input is decoded over the arena and the set arrays it came from —
// their reuse may never be observable.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(Encode(nil, &Message{Type: TypeCommit}))
	f.Add(Encode(nil, sampleMessage()))
	f.Add(Encode(nil, &Message{Type: TypeMultiRead, Seq: 3, Keys: []string{"a", "b", "c"}}))
	f.Add(Encode(nil, &Message{Type: TypeMultiReadReply, Seq: 3, ReplicaID: 1, Reads: []ReadResult{
		{Value: []byte("v"), WTS: timestamp.Timestamp{Time: 2, ClientID: 1}, OK: true},
		{OK: false},
	}}))
	// Snapshot read at TS=s and its confirmed reply (Watermark == TS,
	// op-derived version flagged in Op).
	f.Add(Encode(nil, &Message{Type: TypeMultiRead, Seq: 4, Keys: []string{"a", "b"},
		TS: timestamp.Timestamp{Time: 9, ClientID: 7}}))
	f.Add(Encode(nil, &Message{Type: TypeMultiReadReply, Seq: 4, ReplicaID: 2,
		Watermark: timestamp.Timestamp{Time: 9, ClientID: 7},
		Reads: []ReadResult{
			{Value: []byte("3"), WTS: timestamp.Timestamp{Time: 5, ClientID: 1}, OK: true, Op: OpIncrement},
			{OK: false},
		}}))
	f.Add(Encode(nil, &Message{Type: TypeValidate, Txn: Txn{
		ID: timestamp.TxnID{Seq: 5, ClientID: 2},
		OpSet: []OpSetEntry{
			{Key: "ctr", Kind: OpIncrement, Delta: 1},
			{Key: "log", Kind: OpAppend, Arg: []byte("x")},
			{Key: "hi", Kind: OpMax, Delta: -3},
			{Key: "lo", Kind: OpMin, Delta: 12},
		},
	}}))
	// One of every named type, every field of its row filled.
	for _, m := range everyType(rng) {
		f.Add(Encode(nil, m))
	}
	// The fuzz engine calls the target from one goroutine per process; the lock
	// says so rather than relies on it.
	var (
		mu       sync.Mutex
		recycled = AcquireMessage()
		chunks   Chunks // what kept is copied into, as a trecord partition's
		kept     Txn    // taken out of recycled at the last input that decoded
		keptWant Txn    // the same body, cut from that input's fresh, never-released Decode
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		mu.Lock()
		defer mu.Unlock()
		ReleaseMessage(recycled)
		recycled = AcquireMessage()
		errRecycled := DecodeInto(recycled, data)
		if !reflect.DeepEqual(kept, keptWant) {
			t.Fatalf("a body taken from the last input changed while this one was decoded:\n got: %+v\nwant: %+v", kept, keptWant)
		}
		if (err == nil) != (errRecycled == nil) {
			t.Fatalf("DecodeInto disagrees with Decode: %v / %v", errRecycled, err)
		}
		if err != nil {
			return
		}
		if !same(m, recycled) {
			t.Fatal("DecodeInto on a recycled message differs from Decode")
		}
		// Byte identity can differ (non-canonical varints decode fine), but
		// the value must round-trip exactly.
		m2, err := Decode(Encode(nil, m))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !same(m, m2) {
			t.Fatal("decoded message does not round-trip")
		}
		kept, keptWant = recycled.TakeTxn(&chunks), m.Txn
		if !reflect.DeepEqual(kept, keptWant) {
			t.Fatalf("TakeTxn changed the body:\n got: %+v\nwant: %+v", kept, keptWant)
		}
	})
}
