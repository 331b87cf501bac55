package message

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"meerkat/internal/timestamp"
)

// smallMessage is a typical hot-path message: a validate request with a
// two-key read set and a one-key write set.
func smallMessage() *Message {
	return &Message{
		Type: TypeValidate,
		Txn: Txn{
			ID: timestamp.TxnID{Seq: 7, ClientID: 3},
			ReadSet: []ReadSetEntry{
				{Key: "user_1", WTS: timestamp.Timestamp{Time: 10, ClientID: 1}},
				{Key: "user_2", WTS: timestamp.Timestamp{Time: 11, ClientID: 2}},
			},
			WriteSet: []WriteSetEntry{{Key: "user_1", Value: []byte("balance=42")}},
		},
		TID:    timestamp.TxnID{Seq: 7, ClientID: 3},
		TS:     timestamp.Timestamp{Time: 99, ClientID: 3},
		CoreID: 2,
	}
}

func TestEncodeIntoMatchesEncode(t *testing.T) {
	for _, m := range []*Message{smallMessage(), sampleMessage(), {Type: TypeCommit}} {
		e := AcquireEncoder()
		got := e.EncodeInto(m)
		want := Encode(nil, m)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("EncodeInto != Encode for %v", m.Type)
		}
		// A second encode replaces, not appends.
		if got2 := e.EncodeInto(m); len(got2) != len(want) {
			t.Errorf("second EncodeInto len = %d, want %d", len(got2), len(want))
		}
		e.Release()
	}
}

func TestDecodeIntoRoundTrip(t *testing.T) {
	m := AcquireMessage()
	defer ReleaseMessage(m)
	// Decode a large message, then a small one, into the same Message: the
	// second decode must fully overwrite the first (no residue).
	for _, src := range []*Message{sampleMessage(), smallMessage(), {Type: TypeCommit}} {
		buf := Encode(nil, src)
		if err := DecodeInto(m, buf); err != nil {
			t.Fatalf("DecodeInto(%v): %v", src.Type, err)
		}
		// Compare via a fresh Decode, which the round-trip tests anchor to
		// the source message; DeepEqual on values ignores spare capacity.
		want, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !same(m, want) {
			t.Fatalf("reused decode mismatch for %v:\ngot:  %+v\nwant: %+v", src.Type, m, want)
		}
	}
}

// TestPooledEncodeZeroAllocs is the allocation regression gate for the send
// path: encoding a small message through a pooled Encoder must not allocate.
func TestPooledEncodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs without -race")
	}
	m := smallMessage()
	// Prime the pool with a sized buffer.
	e := AcquireEncoder()
	e.EncodeInto(m)
	e.Release()
	allocs := testing.AllocsPerRun(200, func() {
		enc := AcquireEncoder()
		enc.EncodeInto(m)
		enc.Release()
	})
	if allocs != 0 {
		t.Fatalf("pooled encode allocated %v objects/op, want 0", allocs)
	}
}

// TestPooledMultiReadZeroAllocs gates the batched execution phase's codec
// cost: encoding a multi-read request and a multi-read reply through pooled
// Encoders, and decoding both — the request's keys and the reply's values are
// cut from the arena of the Message they are decoded into — must not allocate,
// neither into a Message the decoder keeps across iterations nor into one
// recycled through the pool between datagrams, as a receive loop does.
func TestPooledMultiReadZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs without -race")
	}
	defer SetPoisonOnRelease(SetPoisonOnRelease(false))
	req := &Message{Type: TypeMultiRead, Seq: 9, Keys: []string{"user_1", "user_2", "user_3"}}
	reply := &Message{Type: TypeMultiReadReply, Seq: 9, ReplicaID: 2, Reads: []ReadResult{
		{Value: []byte("balance=42"), WTS: timestamp.Timestamp{Time: 10, ClientID: 1}, OK: true},
		{Value: []byte("balance=43"), WTS: timestamp.Timestamp{Time: 11, ClientID: 1}, OK: true},
		{OK: false},
	}}
	reqBuf, replyBuf := Encode(nil, req), Encode(nil, reply)
	// Prime the encoder pool with a sized buffer and dst with sized sets.
	e := AcquireEncoder()
	e.EncodeInto(req)
	e.Release()
	dst := AcquireMessage()
	defer ReleaseMessage(dst)
	if err := DecodeInto(dst, replyBuf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		enc := AcquireEncoder()
		enc.EncodeInto(req)
		enc.EncodeInto(reply)
		enc.Release()
		for _, buf := range [][]byte{reqBuf, replyBuf} {
			if err := DecodeInto(dst, buf); err != nil {
				t.Fatal(err)
			}
			m := AcquireMessage()
			if err := DecodeInto(m, buf); err != nil {
				t.Fatal(err)
			}
			ReleaseMessage(m)
		}
	})
	if allocs != 0 {
		t.Fatalf("pooled multi-read codec allocated %v objects/op, want 0", allocs)
	}
	if dst.Reads[1].WTS != reply.Reads[1].WTS || string(dst.Reads[1].Value) != "balance=43" {
		t.Fatalf("decoded reply: %+v", dst.Reads)
	}
}

// TestValidateRoundTripZeroAllocs is the suite's message.allocs_per_roundtrip
// probe as a gate: a validate and its reply, encoded through one Encoder and
// decoded alternately into one message that is never released. The validate's
// sets fill the arrays the message keeps, its keys and values its arena, so a
// round trip allocates nothing.
func TestValidateRoundTripZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs without -race")
	}
	req := sampleMessage()
	reply := &Message{Type: TypeValidateReply, TID: req.TID, Status: StatusValidatedOK, ReplicaID: 1}
	enc := AcquireEncoder()
	defer enc.Release()
	dst := AcquireMessage()
	defer ReleaseMessage(dst)
	roundTrip := func() {
		for _, m := range []*Message{req, reply} {
			if err := DecodeInto(dst, enc.EncodeInto(m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("a validate round trip allocates %v objects, want 0", allocs)
	}
	if err := DecodeInto(dst, enc.EncodeInto(req)); err != nil || !same(dst, req) {
		t.Fatalf("the recycled decode differs (%v):\n got: %+v\nwant: %+v", err, dst, req)
	}
}

// TestReleaseDropsEverySlice pins the pool's first invariant: a released
// message keeps no slice header anyone else can reach, so the next acquirer can
// never write into (or read from) an array the previous owner moved out or
// still holds.
func TestReleaseDropsEverySlice(t *testing.T) {
	defer SetPoisonOnRelease(SetPoisonOnRelease(false))
	m := AcquireMessage()
	if err := DecodeInto(m, Encode(nil, sampleMessage())); err != nil {
		t.Fatal(err)
	}
	var chunks Chunks
	kept := m.TakeTxn(&chunks) // a handler taking the payload out
	ReleaseMessage(m)
	if !same(m, &Message{}) {
		t.Fatalf("released message is not zero: %+v", m)
	}
	if !reflect.DeepEqual(kept, sampleMessage().Txn) {
		t.Fatal("taken-out payload changed on release")
	}
	if len(m.arena) != 0 || cap(m.arena) == 0 {
		t.Fatalf("released message's arena: len %d cap %d, want it kept and emptied", len(m.arena), cap(m.arena))
	}
	if len(m.readSet)+len(m.writeSet)+len(m.opSet) != 0 || cap(m.readSet) < 2 || cap(m.writeSet) < 1 || cap(m.opSet) < 3 {
		t.Fatalf("released message's set arrays: caps %d/%d/%d, want them kept and emptied", cap(m.readSet), cap(m.writeSet), cap(m.opSet))
	}
	ReleaseMessage(nil) // nil is a no-op

	// Past the encoder's cap the arena is dropped, not pooled.
	big := AcquireMessage()
	if err := DecodeInto(big, Encode(nil, &Message{Type: TypePut, Value: make([]byte, maxPooledEncoderCap+1)})); err != nil {
		t.Fatal(err)
	}
	ReleaseMessage(big)
	if big.arena != nil {
		t.Fatalf("released message kept an arena of %d bytes", cap(big.arena))
	}
}

// randomValidate is a validate of rng's choosing whose sets hold up to n
// entries each.
func randomValidate(rng *rand.Rand, n int) *Message {
	m := randomMessage(rng)
	for m.Type != TypeValidate || len(m.Txn.ReadSet)+len(m.Txn.WriteSet)+len(m.Txn.OpSet) == 0 {
		m = randomMessage(rng)
	}
	for i := rng.Intn(n); i > 0; i-- {
		m.Txn.ReadSet = append(m.Txn.ReadSet, ReadSetEntry{Key: fmt.Sprint("r", i), VHash: uint64(i)})
		m.Txn.WriteSet = append(m.Txn.WriteSet, WriteSetEntry{Key: fmt.Sprint("w", i), Value: []byte("value")})
	}
	return m
}

// TestReleasedBytesAreUnreachable pins the rule one level down: the keys and
// values of a decoded message are cut from its arena and its set entries fill
// arrays it keeps, and all of them die at its release. Poisoned, a key and a
// value held across the release read 0xDB and a set entry aliased across it
// names the poison key at the poison timestamp; the body TakeTxn copied into a
// holder's chunks beforehand does not change — not at the release, and not
// entry for entry while the same struct decodes 300 validates of other sizes.
func TestReleasedBytesAreUnreachable(t *testing.T) {
	defer SetPoisonOnRelease(SetPoisonOnRelease(true))
	var chunks Chunks
	want := sampleMessage()
	wire := Encode(nil, want)
	m := AcquireMessage()
	if err := DecodeInto(m, wire); err != nil {
		t.Fatal(err)
	}
	if !m.OwnsBytes() || want.OwnsBytes() {
		t.Fatalf("OwnsBytes: decoded %v, literal %v", m.OwnsBytes(), want.OwnsBytes())
	}
	key, value := m.Txn.WriteSet[0].Key, m.Txn.WriteSet[0].Value
	if cap(value) != len(value) {
		t.Fatalf("decoded value has %d bytes of the arena behind it", cap(value)-len(value))
	}
	aliased := m.Txn.ReadSet // what a keeper that does not copy would hold
	body := m.TakeTxn(&chunks)
	if !reflect.DeepEqual(body, want.Txn) || !m.Txn.Empty() {
		t.Fatalf("TakeTxn: got %+v, left %+v", body, m.Txn)
	}
	if cap(body.ReadSet) != len(body.ReadSet) || cap(body.WriteSet[0].Value) != len(body.WriteSet[0].Value) {
		t.Fatal("TakeTxn handed out a span an append could grow into its neighbour")
	}
	ReleaseMessage(m)
	for i := 0; i < len(key); i++ {
		if key[i] != poisonByte {
			t.Fatalf("key held across the release reads %q, want poison", key)
		}
	}
	for _, b := range value {
		if b != poisonByte {
			t.Fatalf("value held across the release reads %x, want poison", value)
		}
	}
	for _, r := range aliased {
		if r.Key != poisonKey || r.WTS != poisonTS {
			t.Fatalf("read-set entry held across the release reads %+v, want poison", r)
		}
	}
	if !reflect.DeepEqual(body, want.Txn) {
		t.Fatalf("taken body changed at the release: %+v", body)
	}

	SetPoisonOnRelease(false)
	rng := rand.New(rand.NewSource(5))
	m = AcquireMessage()
	defer ReleaseMessage(m)
	if err := DecodeInto(m, wire); err != nil {
		t.Fatal(err)
	}
	body = m.TakeTxn(&chunks)
	for i := 0; i < 300; i++ {
		if err := DecodeInto(m, Encode(nil, randomValidate(rng, 40))); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			m.TakeTxn(&chunks) // a neighbour in the same chunks
		}
	}
	if !reflect.DeepEqual(body, want.Txn) {
		t.Fatalf("taken body changed while its struct was reused: %+v", body)
	}

	// A sender-built message's bytes are not the message's: TakeTxn moves the
	// sets out and aliases what they point at, exactly as before.
	lit := sampleMessage()
	r0, v0 := &lit.Txn.ReadSet[0], &lit.Txn.WriteSet[0].Value[0]
	if got := lit.TakeTxn(&chunks); &got.ReadSet[0] != r0 || &got.WriteSet[0].Value[0] != v0 {
		t.Fatal("TakeTxn copied a sender-built message's sets")
	}
}

// TestDisownLeavesTheArenaToTheCollector: what a disowned message carries
// outlives its release, poisoned or pooled, and the message starts a new arena.
func TestDisownLeavesTheArenaToTheCollector(t *testing.T) {
	for _, poison := range []bool{true, false} {
		was := SetPoisonOnRelease(poison)
		want := &Message{Type: TypeEpochChangeComplete, Epoch: 3, Records: []TRecordEntry{
			{Txn: sampleMessage().Txn, Status: StatusCommitted},
		}}
		m := AcquireMessage()
		if err := DecodeInto(m, Encode(nil, want)); err != nil {
			t.Fatal(err)
		}
		m.Disown()
		if m.OwnsBytes() {
			t.Fatal("a disowned message still owns its bytes")
		}
		recs := m.Records
		ReleaseMessage(m)
		for i := 0; i < 8; i++ {
			n := AcquireMessage()
			if err := DecodeInto(n, Encode(nil, smallMessage())); err != nil {
				t.Fatal(err)
			}
			defer ReleaseMessage(n)
		}
		if !reflect.DeepEqual(recs, want.Records) {
			t.Fatalf("poison=%v: disowned payload changed after the release", poison)
		}
		SetPoisonOnRelease(was)
	}
}

// TestDisownedTxnSurvivesTheNextDecode: a cold path that keeps a decoded
// message's m.Txn as it is, after Disown, keeps it whole while the same struct
// decodes a validate of the same shape — the arrays the sets were decoded into
// went to the collector with the arena — and released, poisoned or pooled.
func TestDisownedTxnSurvivesTheNextDecode(t *testing.T) {
	for _, poison := range []bool{true, false} {
		was := SetPoisonOnRelease(poison)
		want := sampleMessage()
		m := AcquireMessage()
		if err := DecodeInto(m, Encode(nil, want)); err != nil {
			t.Fatal(err)
		}
		m.Disown()
		kept := m.Txn
		other := sampleMessage()
		other.Txn.ReadSet[0].Key, other.Txn.WriteSet[0].Value, other.Txn.OpSet[0].Delta = "z", []byte("other"), 1
		if err := DecodeInto(m, Encode(nil, other)); err != nil {
			t.Fatal(err)
		}
		ReleaseMessage(m)
		if !reflect.DeepEqual(kept, want.Txn) {
			t.Fatalf("poison=%v: a disowned body changed at the struct's next decode:\n got: %+v\nwant: %+v", poison, kept, want.Txn)
		}
		SetPoisonOnRelease(was)
	}
}

// reacquire takes messages from the pool until it is handed m again, which
// without the race detector is at once. It reports whether it was.
func reacquire(m *Message) bool {
	for i := 0; i < 64; i++ {
		if AcquireMessage() == m {
			return true
		}
	}
	return false
}

// TestLiteralArraysNeverEnterThePool pins the second: the arrays a message
// keeps across a release are the ones it handed out itself, never one a caller
// put into Keys, Reads or Txn. A literal whose Keys, Reads and read set alias
// its sender's arrays is released, re-acquired, refilled and decoded into; the
// sender's arrays must not have been written. (Keeping cap(m.Keys) on release
// would fail here.)
func TestLiteralArraysNeverEnterThePool(t *testing.T) {
	defer SetPoisonOnRelease(SetPoisonOnRelease(false))
	callerKeys := [3]string{"a", "b", "c"}
	callerReads := [2]ReadResult{{Value: []byte("v"), OK: true}, {OK: true}}
	callerReadSet := [2]ReadSetEntry{{Key: "a", VHash: 1}, {Key: "b", VHash: 2}}
	wantKeys, wantReads, wantReadSet := callerKeys, callerReads, callerReadSet
	m := &Message{Type: TypeMultiRead, Keys: callerKeys[:], Reads: callerReads[:], Txn: Txn{ReadSet: callerReadSet[:]}}
	ReleaseMessage(m)
	if !raceEnabled && !reacquire(m) {
		t.Fatal("the pool did not hand the released literal back")
	}
	for i := 0; i < 8; i++ {
		n := AcquireMessage()
		for j := range n.OwnKeys(3) {
			n.Keys[j] = "overwritten"
		}
		for j := range n.OwnReads(2) {
			n.Reads[j] = ReadResult{Value: []byte("overwritten")}
		}
		defer ReleaseMessage(n)
	}
	for j := range m.OwnKeys(3) {
		m.Keys[j] = "overwritten"
	}
	m.OwnReads(2)[0].Value = []byte("overwritten")
	if err := DecodeInto(m, Encode(nil, smallMessage())); err != nil {
		t.Fatal(err)
	}
	if callerKeys != wantKeys || !reflect.DeepEqual(callerReads, wantReads) || callerReadSet != wantReadSet {
		t.Fatalf("a recycled message wrote into its sender's arrays: %q %+v %+v", callerKeys, callerReads, callerReadSet)
	}
}

// TestReleasedArraysHoldNoPointers pins the third: the arrays a message keeps
// are emptied on release — past their length too, after a shrink — so a pooled
// message pins no key string and no version's value bytes.
func TestReleasedArraysHoldNoPointers(t *testing.T) {
	defer SetPoisonOnRelease(SetPoisonOnRelease(false))
	m := AcquireMessage()
	for _, src := range []*Message{
		sampleMessage(),
		{Type: TypeMultiRead, Keys: []string{"k1", "k2", "k3"}},
		{Type: TypeMultiReadReply, Reads: []ReadResult{{Value: []byte("v1")}, {Value: []byte("v2")}}},
	} {
		if err := DecodeInto(m, Encode(nil, src)); err != nil {
			t.Fatal(err)
		}
	}
	m.OwnKeys(1)[0] = "k"
	m.OwnReads(1)[0] = ReadResult{Value: []byte("v")}
	ReleaseMessage(m)
	if cap(m.keys) < 3 || cap(m.reads) < 2 {
		t.Fatalf("released message kept no arrays: cap %d keys, %d reads", cap(m.keys), cap(m.reads))
	}
	for _, k := range m.keys[:cap(m.keys)] {
		if k != "" {
			t.Fatalf("released message pins key %q", k)
		}
	}
	for _, r := range m.reads[:cap(m.reads)] {
		if !reflect.DeepEqual(r, ReadResult{}) {
			t.Fatalf("released message pins read result %+v", r)
		}
	}
	if cap(m.readSet) < 2 || cap(m.writeSet) < 1 || cap(m.opSet) < 3 {
		t.Fatalf("released message kept no set arrays: caps %d/%d/%d", cap(m.readSet), cap(m.writeSet), cap(m.opSet))
	}
	for _, r := range m.readSet[:cap(m.readSet)] {
		if r != (ReadSetEntry{}) {
			t.Fatalf("released message pins read-set entry %+v", r)
		}
	}
	for _, w := range m.writeSet[:cap(m.writeSet)] {
		if !reflect.DeepEqual(w, WriteSetEntry{}) {
			t.Fatalf("released message pins write-set entry %+v", w)
		}
	}
	for _, o := range m.opSet[:cap(m.opSet)] {
		if !reflect.DeepEqual(o, OpSetEntry{}) {
			t.Fatalf("released message pins op-set entry %+v", o)
		}
	}
}

// TestReleaseBoundsKeptArrays: a message keeps its Keys, Reads and set arrays across
// a release only up to maxPooledSlots, as it keeps its arena only up to
// maxPooledEncoderCap — one datagram of under 64 KiB, of empty keys or of
// empty read results, must not leave an array of tens of thousands of slots in
// the pool for the life of the process. An array of hot-path size is kept.
func TestReleaseBoundsKeptArrays(t *testing.T) {
	defer SetPoisonOnRelease(SetPoisonOnRelease(false))
	for _, c := range []struct {
		name string
		n    int
		src  *Message
		kept func(*Message) int
	}{
		{"keys", 60000, &Message{Type: TypeMultiRead, Keys: make([]string, 60000)}, func(m *Message) int { return cap(m.keys) }},
		{"reads", 2500, &Message{Type: TypeMultiReadReply, Reads: make([]ReadResult, 2500)}, func(m *Message) int { return cap(m.reads) }},
		{"read set", 2400, &Message{Type: TypeValidate, Txn: Txn{ReadSet: make([]ReadSetEntry, 2400)}}, func(m *Message) int { return cap(m.readSet) }},
		{"few keys", 8, &Message{Type: TypeMultiRead, Keys: make([]string, 8)}, func(m *Message) int { return cap(m.keys) }},
		{"few writes", 8, &Message{Type: TypeValidate, Txn: Txn{WriteSet: make([]WriteSetEntry, 8)}}, func(m *Message) int { return cap(m.writeSet) }},
	} {
		wire := Encode(nil, c.src)
		if len(wire) > maxPooledEncoderCap {
			t.Fatalf("%s: the datagram is %d bytes, more than one datagram carries", c.name, len(wire))
		}
		m := AcquireMessage()
		if err := DecodeInto(m, wire); err != nil {
			t.Fatal(err)
		}
		if c.kept(m) < c.n {
			t.Fatalf("%s: decoded into an array of %d slots, want %d", c.name, c.kept(m), c.n)
		}
		ReleaseMessage(m)
		got, big := c.kept(m), c.n > maxPooledSlots
		if big && got > maxPooledSlots {
			t.Errorf("%s: the released message keeps an array of %d slots, want none past %d", c.name, got, maxPooledSlots)
		}
		if !big && got < c.n {
			t.Errorf("%s: the released message dropped its array of %d slots", c.name, c.n)
		}
	}
}

// TestCopyFromOwnsItsKeysAndReads: a copy outlives the release of its source
// (a duplicated datagram delivered after the original was handled) with Keys
// and Reads intact, while the Txn sets are shared, not copied.
func TestCopyFromOwnsItsKeysAndReads(t *testing.T) {
	defer SetPoisonOnRelease(SetPoisonOnRelease(false))
	lit := fullMessage()
	src := AcquireMessage()
	src.CopyFrom(lit) // a pooled message a sender filled: Keys and Reads in its own arrays
	cp := AcquireMessage()
	cp.CopyFrom(src)
	if !same(cp, src) {
		t.Fatalf("copy differs:\n got: %+v\nwant: %+v", cp, src)
	}
	if &cp.Keys[0] == &src.Keys[0] || &cp.Reads[0] == &src.Reads[0] {
		t.Fatal("copy shares its source's Keys or Reads array")
	}
	if &cp.Txn.ReadSet[0] != &src.Txn.ReadSet[0] {
		t.Fatal("copy does not share its source's read set")
	}
	ReleaseMessage(src)
	refill := AcquireMessage()
	refill.OwnKeys(3)[0] = "overwritten"
	refill.OwnReads(2)[0].Value = []byte("overwritten")
	if want := fullMessage(); !reflect.DeepEqual(cp.Keys, want.Keys) || !reflect.DeepEqual(cp.Reads, want.Reads) {
		t.Fatalf("copy changed when its source was released: %q %+v", cp.Keys, cp.Reads)
	}
	ReleaseMessage(cp)
	ReleaseMessage(refill)
}

// TestCopyFromRefusesDecodedBytes: a copy of a decoded message would point into
// an arena that dies with its source, so CopyFrom panics rather than make one;
// a source that has disowned its bytes copies like any sender-built message.
func TestCopyFromRefusesDecodedBytes(t *testing.T) {
	defer SetPoisonOnRelease(SetPoisonOnRelease(true))
	src := AcquireMessage()
	if err := DecodeInto(src, Encode(nil, sampleMessage())); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("CopyFrom of a decoded message did not panic")
			}
		}()
		AcquireMessage().CopyFrom(src)
	}()
	src.Disown()
	cp := AcquireMessage()
	cp.CopyFrom(src)
	ReleaseMessage(src)
	if !same(cp, sampleMessage()) {
		t.Fatalf("copy of a disowned message changed when its source was released: %+v", cp)
	}
}

// TestAcquireReleaseZeroAllocs gates the struct recycling itself.
func TestAcquireReleaseZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool; gate runs without -race")
	}
	defer SetPoisonOnRelease(SetPoisonOnRelease(false))
	ReleaseMessage(AcquireMessage())
	allocs := testing.AllocsPerRun(200, func() {
		m := AcquireMessage()
		m.Type = TypeCommit
		ReleaseMessage(m)
	})
	if allocs != 0 {
		t.Fatalf("acquire/release allocated %v objects/op, want 0", allocs)
	}
}

// TestPoisonOnRelease checks the use-after-release tripwire: a poisoned
// message matches no live type or transaction, is not pooled, and a second
// release panics.
func TestPoisonOnRelease(t *testing.T) {
	defer SetPoisonOnRelease(SetPoisonOnRelease(true))
	m := &Message{Type: TypeValidateReply, TID: timestamp.TxnID{Seq: 1, ClientID: 2}}
	m.OwnKeys(1)[0] = "k"
	m.OwnReads(1)[0].OK = true
	ReleaseMessage(m)
	if m.Type.String() != "type(255)" || m.TID != PoisonTID {
		t.Fatalf("released message not poisoned: %+v", m)
	}
	// A read of Keys or Reads after the release is loud too: the poisoned
	// message keeps neither the views nor the arrays behind them.
	if m.Keys != nil || m.Reads != nil || m.keys != nil || m.reads != nil {
		t.Fatalf("poisoned message still carries Keys or Reads: %+v", m)
	}
	if got := AcquireMessage(); got == m {
		t.Fatal("poisoned message went back into the pool")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic in poison mode")
		}
	}()
	ReleaseMessage(m)
}

// BenchmarkEncodeDecode measures the encode→decode round trip — the
// serialization cost of one UDP message each way. The baseline sub-benchmark
// is the pre-pooling behavior (fresh buffer, fresh Message per op); pooled
// uses the reusable Encoder and DecodeInto into one kept Message, allocating
// nothing: the validate's sets fill the arrays the message keeps.
func BenchmarkEncodeDecode(b *testing.B) {
	src := sampleMessage()
	b.Run("baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := Encode(nil, src)
			if _, err := Decode(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		enc := AcquireEncoder()
		defer enc.Release()
		dst := AcquireMessage()
		defer ReleaseMessage(dst)
		for i := 0; i < b.N; i++ {
			buf := enc.EncodeInto(src)
			if err := DecodeInto(dst, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
