package message

import (
	"bytes"
	"testing"

	"meerkat/internal/timestamp"
)

func TestApplyOpSemantics(t *testing.T) {
	cases := []struct {
		name  string
		prev  []byte
		kind  OpKind
		delta int64
		arg   []byte
		want  []byte
	}{
		{"incr-missing", nil, OpIncrement, 5, nil, []byte("5")},
		{"incr-existing", []byte("37"), OpIncrement, 5, nil, []byte("42")},
		{"incr-negative", []byte("3"), OpIncrement, -10, nil, []byte("-7")},
		{"incr-non-numeric", []byte("zebra"), OpIncrement, 2, nil, []byte("2")},
		{"max-missing-negative", nil, OpMax, -5, nil, []byte("-5")},
		{"max-wins", []byte("10"), OpMax, 99, nil, []byte("99")},
		{"max-loses", []byte("100"), OpMax, 99, nil, []byte("100")},
		{"min-missing", nil, OpMin, 7, nil, []byte("7")},
		{"min-wins", []byte("10"), OpMin, 3, nil, []byte("3")},
		{"min-loses", []byte("1"), OpMin, 3, nil, []byte("1")},
		{"append-missing", nil, OpAppend, 0, []byte("ab"), []byte("ab")},
		{"append-existing", []byte("xy"), OpAppend, 0, []byte("zw"), []byte("xyzw")},
		{"none-preserves", []byte("v"), OpNone, 9, []byte("q"), []byte("v")},
	}
	for _, c := range cases {
		got := ApplyOp(nil, c.prev, c.kind, c.delta, c.arg)
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: ApplyOp = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestApplyOpAppendsToDst(t *testing.T) {
	dst := []byte("prefix-")
	got := ApplyOp(dst, []byte("1"), OpIncrement, 1, nil)
	if string(got) != "prefix-2" {
		t.Fatalf("ApplyOp did not append to dst: %q", got)
	}
}

func TestApplyOpDoesNotAliasInputs(t *testing.T) {
	prev := []byte("ab")
	arg := []byte("cd")
	got := ApplyOp(nil, prev, OpAppend, 0, arg)
	prev[0], arg[0] = 'X', 'Y'
	if string(got) != "abcd" {
		t.Fatalf("ApplyOp result aliases an input: %q", got)
	}
}

func TestIntValueRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 42, -9223372036854775808, 9223372036854775807} {
		v := AppendIntValue(nil, n)
		got, ok := ParseIntValue(v)
		if !ok || got != n {
			t.Fatalf("round trip of %d: got %d ok=%v", n, got, ok)
		}
	}
	if _, ok := ParseIntValue(nil); ok {
		t.Fatal("ParseIntValue(nil) reported ok")
	}
	if _, ok := ParseIntValue([]byte("12x")); ok {
		t.Fatal("ParseIntValue of non-numeric value reported ok")
	}
}

func TestOpKindStrings(t *testing.T) {
	for k := OpNone; k <= OpMin; k++ {
		if k.String() == "" {
			t.Fatalf("empty name for kind %d", k)
		}
	}
	if OpNone.Valid() || !OpIncrement.Valid() || !OpMin.Valid() || OpKind(200).Valid() {
		t.Fatal("OpKind.Valid misclassifies")
	}
	if !OpIncrement.Numeric() || !OpMax.Numeric() || !OpMin.Numeric() || OpAppend.Numeric() {
		t.Fatal("OpKind.Numeric misclassifies")
	}
}

// TestPooledOpSetZeroAllocs gates the commutative-op codec cost, mirroring
// the multi-read gate: encoding an op-only validate through a pooled Encoder
// and decoding it into a recycled Message (the replica's steady state — the op
// set and its args reuse the previous decode's array and arena) must not
// allocate.
func TestPooledOpSetZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs without -race")
	}
	m := &Message{
		Type: TypeValidate,
		Txn: Txn{
			ID: timestamp.TxnID{Seq: 7, ClientID: 3},
			OpSet: []OpSetEntry{
				{Key: "counter_1", Kind: OpIncrement, Delta: 1},
				{Key: "feed_1", Kind: OpAppend, Arg: []byte("post:17")},
			},
		},
		TID: timestamp.TxnID{Seq: 7, ClientID: 3},
		TS:  timestamp.Timestamp{Time: 99, ClientID: 3},
	}
	buf := Encode(nil, m)
	// Prime pools.
	e := AcquireEncoder()
	e.EncodeInto(m)
	e.Release()
	dst := AcquireMessage()
	defer ReleaseMessage(dst)
	if err := DecodeInto(dst, buf); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(200, func() {
		enc := AcquireEncoder()
		enc.EncodeInto(m)
		enc.Release()
	})
	if allocs != 0 {
		t.Fatalf("pooled op-set encode allocated %v objects/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if err := DecodeInto(dst, buf); err != nil {
			t.Fatal(err)
		}
	})
	// The keys and args are cut from the arena and the op set fills the array
	// the message keeps: everything reuses the kept message's capacity.
	if allocs != 0 {
		t.Fatalf("pooled op-set decode allocated %v objects/op, want 0", allocs)
	}
}
