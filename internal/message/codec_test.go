package message

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"meerkat/internal/timestamp"
)

// sampleMessage is a validate request with every field of its row set and
// every set of its transaction filled.
func sampleMessage() *Message {
	return &Message{
		Type: TypeValidate,
		Src:  Addr{Node: 3, Core: 7},
		Txn: Txn{
			ID: timestamp.TxnID{Seq: 42, ClientID: 9},
			ReadSet: []ReadSetEntry{
				{Key: "a", WTS: timestamp.Timestamp{Time: 3, ClientID: 1}},
				{Key: "b", WTS: timestamp.Timestamp{Time: 9, ClientID: 2}},
			},
			WriteSet: []WriteSetEntry{
				{Key: "a", Value: []byte("hello")},
			},
			OpSet: []OpSetEntry{
				{Key: "ctr", Kind: OpIncrement, Delta: -7},
				{Key: "log", Kind: OpAppend, Arg: []byte("entry")},
				{Key: "hi", Kind: OpMax, Delta: 99},
			},
		},
		TID:        timestamp.TxnID{Seq: 42, ClientID: 9},
		TS:         timestamp.Timestamp{Time: 100, ClientID: 9},
		CoreID:     5,
		MapVersion: 4,
	}
}

// same compares two messages field by field, leaving out the storage a message
// keeps for itself: a decoded message holds its Keys, Reads and Txn sets in
// arrays of its own and its bytes in its arena, a literal does not.
func same(a, b *Message) bool {
	x, y := *a, *b
	x.owned, y.owned = owned{}, owned{}
	return reflect.DeepEqual(x, y)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range append(everyType(rng), sampleMessage()) {
		got, err := Decode(Encode(nil, m))
		if err != nil {
			t.Fatalf("Decode %v: %v", m.Type, err)
		}
		if !same(m, got) {
			t.Fatalf("%v: round trip mismatch:\n in: %+v\nout: %+v", m.Type, m, got)
		}
	}
}

func TestEncodeDecodeEmptyMessage(t *testing.T) {
	m := &Message{Type: TypeCommit}
	buf := Encode(nil, m)
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !same(m, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", m, got)
	}
}

func TestEncodeAppendsToBuffer(t *testing.T) {
	prefix := []byte("prefix")
	m := &Message{Type: TypePut, Key: "k", Value: []byte("v")}
	buf := Encode(append([]byte(nil), prefix...), m)
	if !bytes.HasPrefix(buf, prefix) {
		t.Fatal("Encode did not append to provided buffer")
	}
	got, err := Decode(buf[len(prefix):])
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Key != "k" || string(got.Value) != "v" {
		t.Fatalf("decoded %+v", got)
	}
}

func TestDecodeTruncated(t *testing.T) {
	buf := Encode(nil, sampleMessage())
	for _, n := range []int{0, 1, 5, len(buf) / 2, len(buf) - 1} {
		if _, err := Decode(buf[:n]); err == nil {
			t.Errorf("Decode of %d-byte prefix succeeded, want error", n)
		}
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	buf := Encode(nil, sampleMessage())
	buf = append(buf, 0xFF)
	if _, err := Decode(buf); err == nil {
		t.Fatal("Decode with trailing bytes succeeded, want error")
	}
}

func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(300)
		buf := make([]byte, n)
		rng.Read(buf)
		// Must not panic; error or success are both fine.
		_, _ = Decode(buf)
	}
}

func TestDecodeCorruptLengthPrefix(t *testing.T) {
	// A huge uvarint length must fail cleanly, not attempt the allocation.
	m := &Message{Type: TypePut, Key: "abc"}
	buf := Encode(nil, m)
	// Corrupt a byte in the middle and ensure no panic.
	for i := range buf {
		b := make([]byte, len(buf))
		copy(b, buf)
		b[i] ^= 0xFF
		_, _ = Decode(b)
	}
}

// quickTxn builds a Txn from fuzzer-chosen primitives.
func quickTxn(seq, cid uint64, keys []string, vals [][]byte) Txn {
	t := Txn{ID: timestamp.TxnID{Seq: seq, ClientID: cid}}
	for i, k := range keys {
		t.ReadSet = append(t.ReadSet, ReadSetEntry{Key: k, WTS: timestamp.Timestamp{Time: int64(i), ClientID: cid}})
	}
	for i, v := range vals {
		t.WriteSet = append(t.WriteSet, WriteSetEntry{Key: string(rune('a' + i%26)), Value: v})
	}
	return t
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seq, cid uint64, keys []string, vals [][]byte, key string, value []byte, ok bool, view, epoch uint64) bool {
		tid := timestamp.TxnID{Seq: seq, ClientID: cid}
		accept := &Message{
			Type:   TypeAccept,
			Txn:    quickTxn(seq, cid, keys, vals),
			TID:    tid,
			TS:     timestamp.Timestamp{Time: int64(seq), ClientID: cid},
			Status: StatusAcceptCommit,
			View:   view,
		}
		// Normalize: codec decodes empty slices as nil.
		if len(value) == 0 {
			value = nil
		}
		for i := range accept.Txn.WriteSet {
			if len(accept.Txn.WriteSet[i].Value) == 0 {
				accept.Txn.WriteSet[i].Value = nil
			}
		}
		for _, m := range []*Message{
			accept,
			{Type: TypeAcceptReply, TID: tid, View: view, OK: ok},
			{Type: TypePut, Key: key, Value: value, Seq: seq},
			{Type: TypeEpochChange, Epoch: epoch},
		} {
			got, err := Decode(Encode(nil, m))
			if err != nil || !same(m, got) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStatusStrings(t *testing.T) {
	if StatusValidatedOK.String() != "VALIDATED-OK" {
		t.Errorf("got %q", StatusValidatedOK.String())
	}
	if StatusCommitted.String() != "COMMITTED" {
		t.Errorf("got %q", StatusCommitted.String())
	}
	if !StatusCommitted.Final() || !StatusAborted.Final() {
		t.Error("final statuses not Final()")
	}
	if StatusValidatedOK.Final() || StatusNone.Final() {
		t.Error("non-final statuses reported Final()")
	}
	if Status(200).String() == "" {
		t.Error("unknown status should still format")
	}
}

func TestTypeStrings(t *testing.T) {
	if TypeValidate.String() != "validate" {
		t.Errorf("got %q", TypeValidate.String())
	}
	if Type(200).String() == "" {
		t.Error("unknown type should still format")
	}
}

func TestMessageString(t *testing.T) {
	for n := range typeNames {
		if m := (&Message{Type: Type(n)}); m.String() == "" {
			t.Errorf("empty String() for %v", m.Type)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	m := sampleMessage()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], m)
	}
}

func BenchmarkDecode(b *testing.B) {
	buf := Encode(nil, sampleMessage())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStateTransferRoundTrip(t *testing.T) {
	m := &Message{
		Type: TypeStateReply,
		Seq:  42,
		OK:   true,
		State: []KeyState{
			{Key: "a", Value: []byte("v1"), WTS: timestamp.Timestamp{Time: 5, ClientID: 1}, RTS: timestamp.Timestamp{Time: 9, ClientID: 2}},
			{Key: "b", Value: nil, WTS: timestamp.Timestamp{Time: 7, ClientID: 3}},
		},
		ReplicaID: 1,
	}
	buf := Encode(nil, m)
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !same(m, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", m, got)
	}
}

// TestTypeNumbersArePinned pins every message type to its number. The type
// byte leads every wire message and every write-ahead-log and snapshot record
// (DESIGN.md §11), so deleting or inserting a type must not renumber another:
// a log written before the change must not be misread after it. 1 and 2 are
// the retired one-key read pair; 25 and 26 the durability records of the
// layout in which every type carried every field, which replay now refuses by
// their number. All four stay unassigned.
func TestTypeNumbersArePinned(t *testing.T) {
	pinned := map[Type]uint8{
		TypeInvalid:                0,
		TypeValidate:               3,
		TypeValidateReply:          4,
		TypeAccept:                 5,
		TypeAcceptReply:            6,
		TypeCommit:                 7,
		TypeEpochChange:            8,
		TypeEpochChangeAck:         9,
		TypeEpochChangeComplete:    10,
		TypeCoordChange:            11,
		TypeCoordChangeAck:         12,
		TypePBSubmit:               13,
		TypePBReply:                14,
		TypePBReplicate:            15,
		TypePBAck:                  16,
		TypePut:                    17,
		TypePutReply:               18,
		TypeEpochChangeCompleteAck: 19,
		TypeSweep:                  20,
		TypeStateRequest:           21,
		TypeStateReply:             22,
		TypeMultiRead:              23,
		TypeMultiReadReply:         24,
		TypeWALRecord:              27,
		TypeWALSnapshot:            28,
	}
	for typ, want := range pinned {
		if uint8(typ) != want {
			t.Errorf("%v = %d, pinned at %d", typ, uint8(typ), want)
		}
	}
	// Every number up to the last is either pinned or a reserved blank, and
	// nothing is named past it: a new type extends this table.
	for n := 0; n < len(typeNames); n++ {
		_, ok := pinned[Type(n)]
		if named := typeNames[n] != ""; named != ok {
			t.Errorf("type number %d: named %v, pinned %v", n, named, ok)
		}
	}
	if len(typeNames) != int(TypeWALSnapshot)+1 {
		t.Errorf("%d type names, want %d", len(typeNames), int(TypeWALSnapshot)+1)
	}
	for _, blank := range []Type{1, 2, 25, 26} {
		if got := blank.String(); got != fmt.Sprintf("type(%d)", uint8(blank)) {
			t.Errorf("retired type %d prints as %q", uint8(blank), got)
		}
		if layout[blank] != 0 {
			t.Errorf("retired type %d has a layout row", uint8(blank))
		}
	}
}

// TestLayoutGoldens pins each type's encoding byte for byte: a minimal message
// of every named type — every field of its row zero — is its type byte and
// its row's fields in order, and nothing else. A commit is 30 bytes and a
// validate reply 47, where the layout that carried every field made each 126.
// One state-request carries values, because three of its slots mean something
// else for it: its apply-time bound (SinceWall) travels where View does, its
// shard where Seq does.
func TestLayoutGoldens(t *testing.T) {
	const (
		src   = "0000000000000000"                 // node, core
		id    = "00000000000000000000000000000000" // a TxnID or a Timestamp
		txn   = id + "000000"                      // id and three empty sets
		u8    = "00"                               // status, ok; an empty string, span or repeated field
		u32   = "00000000"                         // core id, replica id
		u64   = "0000000000000000"                 // view, epoch, seq
		route = u64 + u8                           // map version, wrong shard
	)
	golden := map[Type]string{
		TypeInvalid:                "00",
		TypeValidate:               "03" + src + txn + id + id + u32 + route,
		TypeValidateReply:          "04" + src + id + u8 + u64 + u32 + route,
		TypeAccept:                 "05" + src + txn + id + id + u8 + u64 + u32,
		TypeAcceptReply:            "06" + src + id + u8 + u64 + u8 + u32,
		TypeCommit:                 "07" + src + id + u8 + u32,
		TypeEpochChange:            "08" + src + u64,
		TypeEpochChangeAck:         "09" + src + u32 + u8 + u64 + u8 + u32,
		TypeEpochChangeComplete:    "0a" + src + u64 + u8,
		TypeCoordChange:            "0b" + src + id + u64 + u32,
		TypeCoordChangeAck:         "0c" + src + id + u64 + u8 + u8 + u32,
		TypePBSubmit:               "0d" + src + txn + id + u32,
		TypePBReply:                "0e" + src + id + u8,
		TypePBReplicate:            "0f" + src + txn + id + u64,
		TypePBAck:                  "10" + src + id + u64 + u32,
		TypePut:                    "11" + src + u8 + u8 + u64,
		TypePutReply:               "12" + src + u64,
		TypeEpochChangeCompleteAck: "13" + src + u32 + u64 + u32,
		TypeSweep:                  "14" + src,
		TypeStateRequest:           "15" + src + id + u64 + u64,
		TypeStateReply:             "16" + src + u8 + u64 + u8 + u32,
		TypeMultiRead:              "17" + src + id + u64 + u8 + route,
		TypeMultiReadReply:         "18" + src + u64 + u32 + u8 + id + route,
		TypeWALRecord:              "1b" + txn + id,
		TypeWALSnapshot:            "1c" + u64 + u8,
	}
	for n := range typeNames {
		if typeNames[n] == "" {
			continue
		}
		typ := Type(n)
		want, ok := golden[typ]
		if !ok {
			t.Errorf("%v has no golden encoding", typ)
			continue
		}
		if got := fmt.Sprintf("%x", Encode(nil, &Message{Type: typ})); got != want {
			t.Errorf("a minimal %v encodes as\n%s, pinned at\n%s", typ, got, want)
		}
	}
	for typ, size := range map[Type]int{TypeCommit: 30, TypeValidateReply: 47} {
		if got := len(Encode(nil, &Message{Type: typ})); got != size {
			t.Errorf("a minimal %v is %d bytes, want %d", typ, got, size)
		}
	}

	req := &Message{Type: TypeStateRequest, Seq: 3, TS: timestamp.Timestamp{Time: 0x0102030405060708, ClientID: 9}}
	req.SetSinceWall(0x1122334455667788)
	const pinned = "15" + src + // type 21; src
		"0807060504030201" + "0900000000000000" + // ts — the delta bound
		"8877665544332211" + // view — the apply-time bound
		"0300000000000000" // seq — the shard
	if got := fmt.Sprintf("%x", Encode(nil, req)); got != pinned {
		t.Errorf("state-request encodes as\n%s, pinned at\n%s", got, pinned)
	}
	var back Message
	if err := DecodeInto(&back, Encode(nil, req)); err != nil || back.SinceWall() != 0x1122334455667788 || back.View != req.View {
		t.Errorf("decoded SinceWall %#x (View %#x), err %v", back.SinceWall(), back.View, err)
	}
}

// fullMessage sets every field of Message, whatever its type's row.
func fullMessage() *Message {
	m := sampleMessage()
	m.Status, m.View, m.Key, m.Value, m.OK, m.Epoch = StatusValidatedOK, 2, "k", []byte{1, 2, 3}, true, 7
	m.Records = []TRecordEntry{{Txn: m.Txn, TS: m.TS, Status: StatusCommitted, View: 1, AcceptView: 1, CoreID: 3}}
	m.Seq, m.ReplicaID, m.WrongShard = 11, 2, true
	m.State = []KeyState{{Key: "s", Value: []byte("v"), WTS: m.TS, RTS: m.TS}}
	m.Keys = []string{"k1", "k2", "k3"}
	m.Reads = []ReadResult{{Value: []byte("v1"), WTS: m.TS, OK: true}, {}}
	m.Watermark = m.TS
	return m
}

// TestDecodeZeroesAbsentFields: a decode sets every field its type's row
// leaves out to the zero value, in a message that held all of them — one
// reused across a receive loop, or recycled through the pool — as in a fresh
// one. Keys and Reads become nil, their arrays kept and emptied.
func TestDecodeZeroesAbsentFields(t *testing.T) {
	defer SetPoisonOnRelease(SetPoisonOnRelease(false))
	rng := rand.New(rand.NewSource(4))
	for _, src := range everyType(rng) {
		wire := Encode(nil, src)
		want, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		m := AcquireMessage()
		m.CopyFrom(fullMessage())
		if err := DecodeInto(m, wire); err != nil {
			t.Fatal(err)
		}
		if !same(m, want) {
			t.Errorf("%v decoded over a full message:\n got: %+v\nwant: %+v", src.Type, m, want)
		}
		if layout[src.Type]&fKeys == 0 && (m.Keys != nil || cap(m.keys) < 3 || m.keys[:3][0] != "") {
			t.Errorf("%v: Keys %q, kept array cap %d, want nil over an emptied array", src.Type, m.Keys, cap(m.keys))
		}
		if layout[src.Type]&fReads == 0 && (m.Reads != nil || cap(m.reads) < 2 || m.reads[:2][0].Value != nil) {
			t.Errorf("%v: Reads %+v, kept array cap %d, want nil over an emptied array", src.Type, m.Reads, cap(m.reads))
		}
		ReleaseMessage(m)
	}
}

// TestEncodeRefusesFieldsItsRowDrops: with the poison-on-release test hook on,
// a message carrying a field its type's row leaves out — a field its sender set
// and no receiver would see — panics at encode, naming the type. Without the
// hook the field is dropped, as the layout says.
func TestEncodeRefusesFieldsItsRowDrops(t *testing.T) {
	defer SetPoisonOnRelease(SetPoisonOnRelease(true))
	rng := rand.New(rand.NewSource(6))
	for _, m := range everyType(rng) {
		Encode(nil, m) // a message that fills only its row encodes
	}
	commit := &Message{Type: TypeCommit, TID: timestamp.TxnID{Seq: 1, ClientID: 2}, Status: StatusCommitted, Key: "k"}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "commit") {
				t.Fatalf("a commit carrying a Key encoded with recover() = %v, want a panic naming it", r)
			}
		}()
		Encode(nil, commit)
	}()
	SetPoisonOnRelease(false)
	if back, err := Decode(Encode(nil, commit)); err != nil || back.Key != "" || back.TID != commit.TID {
		t.Fatalf("without the hook: %+v, %v", back, err)
	}
}
