package message

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"meerkat/internal/timestamp"
)

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
		TID:    timestamp.TxnID{Seq: 42, ClientID: 9},
		TS:     timestamp.Timestamp{Time: 100, ClientID: 9},
		Status: StatusValidatedOK,
		View:   2,
		CoreID: 5,
		Key:    "k",
		Value:  []byte{1, 2, 3},
		OK:     true,
		Epoch:  7,
		Records: []TRecordEntry{
			{
				Txn: Txn{
					ID:       timestamp.TxnID{Seq: 1, ClientID: 2},
					ReadSet:  []ReadSetEntry{{Key: "x", WTS: timestamp.Timestamp{Time: 1, ClientID: 1}}},
					WriteSet: []WriteSetEntry{{Key: "y", Value: []byte("v")}},
				},
				TS:         timestamp.Timestamp{Time: 50, ClientID: 2},
				Status:     StatusCommitted,
				View:       1,
				AcceptView: 1,
				CoreID:     3,
			},
		},
		Seq: 11,
		Entries: []LogEntry{
			{
				Seq: 1,
				TID: timestamp.TxnID{Seq: 2, ClientID: 3},
				TS:  timestamp.Timestamp{Time: 4, ClientID: 3},
				WriteSet: []WriteSetEntry{
					{Key: "z", Value: []byte("w")},
				},
			},
		},
		ReplicaID: 2,
		Keys:      []string{"k1", "k2", "k3"},
		Reads: []ReadResult{
			{Value: []byte("v1"), WTS: timestamp.Timestamp{Time: 8, ClientID: 1}, OK: true},
			{Value: nil, OK: false},
		},
	}
}

// same compares two messages field by field, leaving out the storage a message
// keeps for itself: a decoded message holds its Keys and Reads in arrays of its
// own and its bytes in its arena, a literal does not.
func same(a, b *Message) bool {
	x, y := *a, *b
	x.keys, x.reads, x.arena, y.keys, y.reads, y.arena = nil, nil, nil, nil, nil, nil
	return reflect.DeepEqual(x, y)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleMessage()
	buf := Encode(nil, m)
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !same(m, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", m, got)
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
		m := &Message{
			Type:   TypeValidate,
			Txn:    quickTxn(seq, cid, keys, vals),
			TID:    timestamp.TxnID{Seq: seq, ClientID: cid},
			TS:     timestamp.Timestamp{Time: int64(seq), ClientID: cid},
			Status: StatusValidatedOK,
			View:   view,
			Key:    key,
			Value:  value,
			OK:     ok,
			Epoch:  epoch,
		}
		// Normalize: codec decodes empty slices as nil.
		if len(m.Value) == 0 {
			m.Value = nil
		}
		for i := range m.Txn.WriteSet {
			if len(m.Txn.WriteSet[i].Value) == 0 {
				m.Txn.WriteSet[i].Value = nil
			}
		}
		buf := Encode(nil, m)
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		return same(m, got)
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
	for ty := TypeInvalid; ty <= TypePutReply; ty++ {
		m := &Message{Type: ty}
		if m.String() == "" {
			t.Errorf("empty String() for %v", ty)
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
// a log written before the change has to reopen after it. 1 and 2 are the
// retired one-key read pair and stay unassigned.
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
		TypeWALRecord:              25,
		TypeWALSnapshot:            26,
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
	for _, blank := range []Type{1, 2} {
		if got := blank.String(); got != fmt.Sprintf("type(%d)", uint8(blank)) {
			t.Errorf("retired type %d prints as %q", uint8(blank), got)
		}
	}

	// One state-request, byte for byte: its apply-time bound has a name of its
	// own (SinceWall) but no slot of its own — it travels where View does.
	req := &Message{Type: TypeStateRequest, Seq: 3, TS: timestamp.Timestamp{Time: 0x0102030405060708, ClientID: 9}}
	req.SetSinceWall(0x1122334455667788)
	const golden = "15" + "00000000" + "00000000" + // type 21; src
		"00000000000000000000000000000000" + "000000" + // txn: id, three empty sets
		"00000000000000000000000000000000" + // tid
		"0807060504030201" + "0900000000000000" + // ts
		"00" + "8877665544332211" + "00000000" + // status; view — the bound; core id
		"00" + "00" + "00" + // key, value, ok
		"0000000000000000" + "00" + // epoch, records
		"0300000000000000" + "00" + // seq — the shard; entries
		"00" + "00000000" + "00" + "00" + // state, replica id, keys, reads
		"00000000000000000000000000000000" + "0000000000000000" + "00" // watermark, map version, wrong-shard
	if got := fmt.Sprintf("%x", Encode(nil, req)); got != golden {
		t.Errorf("state-request encodes as\n%s, pinned at\n%s", got, golden)
	}
	var back Message
	if err := DecodeInto(&back, Encode(nil, req)); err != nil || back.SinceWall() != 0x1122334455667788 || back.View != req.View {
		t.Errorf("decoded SinceWall %#x (View %#x), err %v", back.SinceWall(), back.View, err)
	}
}
