package coordinator

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/shardmap"
	"meerkat/internal/timestamp"
)

// The read round is a step machine like the commit round, and is tested the
// same way: a script of replies and instants goes into reply and tick, and
// after every step the test plays the driver's part — it notes which
// partitions asked for their request and clears the flags, and it settles a
// redirect the way perform does, with or without a newer map to find.

var readSnap = timestamp.Timestamp{Time: 50, ClientID: 1}

// newTestReads builds a read round over a two-group map inside roundTopo's
// four partitions, so that a split has somewhere to move a range to.
func newTestReads() (*readRound, *shardmap.Source) {
	src := shardmap.NewSource(shardmap.New(2))
	cfg := &Config{
		Topo: roundTopo, ClientID: 1, Timeout: roundTimeout, Retries: 3,
		BackoffBase: roundBackoff, BackoffMax: roundBackoff, ShardMap: shardmap.NewCache(src),
	}
	rr := new(readRound)
	rr.init(cfg, nil)
	return rr, src
}

// keyOf returns a key for which pred holds.
func keyOf(pred func(string) bool) string {
	for n := 0; ; n++ {
		if k := fmt.Sprintf("%d-key", n); pred(k) {
			return k
		}
	}
}

func (rr *readRound) takeSends() string {
	var out []string
	for p := range rr.parts {
		if rr.parts[p].Send {
			rr.parts[p].Send = false
			out = append(out, fmt.Sprintf("read:%d", p))
		}
	}
	return strings.Join(out, " ")
}

// answer is a multi-read reply's payload: one result per key and, from a
// snapshot read, the watermark.
func answer(watermark timestamp.Timestamp, reads ...message.ReadResult) *message.Message {
	return &message.Message{Type: message.TypeMultiReadReply, Watermark: watermark, Reads: reads}
}

func val(s string, wts int64) message.ReadResult {
	return message.ReadResult{Value: []byte(s), WTS: timestamp.Timestamp{Time: wts, ClientID: 9}, OK: true}
}

func opVal(s string, wts int64) message.ReadResult {
	r := val(s, wts)
	r.Op = message.OpIncrement
	return r
}

// A readStep is a reply of replica `replica` of partition p, stamped with
// the Seq of p's current attempt (or, stale, the one before), or — msg nil — a
// tick at roundT0 + at. sends is what the step must make the round ask for.
type readStep struct {
	p, replica int
	msg        *message.Message
	stale      bool
	at         time.Duration
	sends      string
}

func TestReadRoundSteps(t *testing.T) {
	base := shardmap.New(2)
	on := func(p int) string { return keyOf(func(k string) bool { return base.GroupForKey(k) == p }) }
	on0b := keyOf(func(k string) bool { return base.GroupForKey(k) == 0 && k != on(0) })
	split, _, _, err := base.Split(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	moving := keyOf(func(k string) bool { return base.GroupForKey(k) == 0 && split.GroupForKey(k) == 2 })
	multi := func(reads ...message.ReadResult) *message.Message { return answer(timestamp.Timestamp{}, reads...) }
	refused := &message.Message{Type: message.TypeMultiReadReply, WrongShard: true}
	below := timestamp.Timestamp{Time: 40, ClientID: 3}

	for _, tc := range []struct {
		name  string
		keys  []string
		snap  timestamp.Timestamp
		first string // what begin must ask for
		// publish, when set, is the map a redirect's refresh finds.
		publish *shardmap.Map
		script  []readStep
		wantErr error
		want    []string // the values read, when the round succeeds
		probe   func(t *testing.T, rr *readRound)
	}{
		{
			name: "first good reply wins; stale Seq, wrong length and an untouched group are ignored", keys: []string{on(0), on(1)},
			first: "read:0 read:1",
			script: []readStep{
				{p: 1, msg: multi(val("old", 1)), stale: true},
				{p: 1, msg: multi(val("a", 1), val("b", 1))},    // two answers for one key
				{p: 2, replica: 0, msg: multi(val("other", 1))}, // group 2 was not asked
				{p: 1, replica: 2, msg: multi(val("one", 1))},
				{p: 1, replica: 0, msg: multi(val("late", 2))}, // partition 1 is closed
				{p: 0, replica: 0, msg: multi(val("zero", 1))},
			},
			want: []string{"zero", "one"},
		},
		{
			name: "only open partitions are resent", keys: []string{on(0), on(1)},
			first: "read:0 read:1",
			script: []readStep{
				{p: 0, msg: multi(val("zero", 1))},
				{at: roundTimeout},                                 // partition 1 backs off
				{at: roundTimeout + roundBackoff, sends: "read:1"}, // and it alone is asked again
				{p: 1, msg: multi(val("one", 1))},
			},
			want: []string{"zero", "one"},
			probe: func(t *testing.T, rr *readRound) {
				if a0, a1 := rr.parts[0].Attempt, rr.parts[1].Attempt; a0 != 0 || a1 != 1 {
					t.Errorf("attempts %d and %d, want 0 and 1", a0, a1)
				}
			},
		},
		{
			name: "the retry budget ends in a timeout", keys: []string{on(1)},
			first: "read:1",
			script: []readStep{
				{at: roundTimeout}, {at: roundTimeout + roundBackoff, sends: "read:1"},
				{at: 3 * roundTimeout}, {at: 3*roundTimeout + roundBackoff, sends: "read:1"},
				{at: 5 * roundTimeout}, {at: 5*roundTimeout + roundBackoff, sends: "read:1"},
				{at: 7 * roundTimeout},
			},
			wantErr: ErrTimeout,
		},
		{
			name: "the one-key round is the plain round over one key: only a multi-read reply answers it", keys: []string{on(1)},
			first: "read:1",
			script: []readStep{
				{p: 1, msg: &message.Message{Type: message.TypeValidateReply, Value: []byte("other"), OK: true}},
				{p: 1, msg: multi(val("single", 1))},
			},
			want: []string{"single"},
		},
		{
			name: "snapshot: a confirmed, settled quorum closes the partition; a duplicate replier counts once", keys: []string{on(0), on0b}, snap: readSnap,
			first: "read:0",
			script: []readStep{
				{p: 0, replica: 1, msg: answer(readSnap, val("a", 7), val("b", 3))},
				{p: 0, replica: 1, msg: answer(readSnap, val("a", 7), val("b", 3))},
				{p: 0, replica: 0, msg: answer(below, val("a", 7), val("b", 3))},    // unconfirmed: counts for nothing but minW
				{p: 0, replica: 2, msg: answer(readSnap, val("a", 5), val("b", 3))}, // benign lag on a plain write
			},
			want: []string{"a", "b"},
			probe: func(t *testing.T, rr *readRound) {
				if rr.minW != below {
					t.Errorf("minW %v, want the unconfirmed reply's %v", rr.minW, below)
				}
			},
		},
		{
			name: "snapshot: op-derived answers that disagree retry at once, not at the deadline", keys: []string{on(1)}, snap: readSnap,
			first: "read:1",
			script: []readStep{
				{p: 1, replica: 0, msg: answer(readSnap, opVal("5", 7))},
				{p: 1, replica: 1, msg: answer(readSnap, opVal("6", 7))}, // mixed: same version, other bytes
				{p: 1, replica: 2, msg: answer(readSnap, opVal("5", 7))},
				{at: time.Millisecond}, // everyone answered, nothing settled: back off now
				{at: time.Millisecond + roundBackoff, sends: "read:1"},
				{p: 1, replica: 0, msg: answer(readSnap, opVal("5", 7)), stale: true}, // the first attempt's Seq
				{p: 1, replica: 0, msg: answer(readSnap, opVal("6", 7))},
				{p: 1, replica: 2, msg: answer(readSnap, opVal("6", 6))}, // below: an op-derived best must not lag anywhere
				{p: 1, replica: 1, msg: answer(readSnap, opVal("6", 7))},
				{at: 2 * time.Millisecond},
				{at: 2*time.Millisecond + roundBackoff, sends: "read:1"},
				{p: 1, replica: 0, msg: answer(readSnap, opVal("6", 7))},
				{p: 1, replica: 1, msg: answer(readSnap, opVal("6", 7))},
			},
			want: []string{"6"},
		},
		{
			name: "snapshot: the attempt budget ends unconfirmed, with the lowest watermark", keys: []string{on(0)}, snap: readSnap,
			first: "read:0",
			script: []readStep{
				{p: 0, replica: 0, msg: answer(below, val("a", 1))},
				{at: roundTimeout}, {at: roundTimeout + roundBackoff, sends: "read:0"},
				{at: 3 * roundTimeout}, {at: 3*roundTimeout + roundBackoff, sends: "read:0"},
				{at: 5 * roundTimeout}, // roRetries resends, although cfg.Retries would allow a third
			},
			wantErr: errROUnconfirmed,
			probe: func(t *testing.T, rr *readRound) {
				if rr.minW != below {
					t.Errorf("minW %v, want %v", rr.minW, below)
				}
			},
		},
		{
			name: "wrong shard, the map advanced: regroup and start over at once", keys: []string{moving, on(1)},
			first: "read:0 read:1", publish: split,
			script: []readStep{
				{p: 1, msg: multi(val("one", 1))},
				{p: 0, msg: refused},
				{at: 0, sends: "read:1 read:2"},    // moving now lives on group 2; 1 is asked again under the new Seq
				{p: 0, msg: multi(val("zero", 1))}, // group 0 is no longer asked
				{p: 1, msg: multi(val("stale", 1)), stale: true},
				{p: 2, msg: multi(val("moved", 2))},
				{p: 1, msg: multi(val("one", 2))},
			},
			want: []string{"moved", "one"},
		},
		{
			name: "wrong shard mid-fence: no newer map, the round fails", keys: []string{moving}, snap: readSnap,
			first:   "read:0",
			script:  []readStep{{p: 0, msg: refused}},
			wantErr: ErrWrongShard,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rr, src := newTestReads()
			rr.begin(tc.keys, tc.snap, roundT0)
			if got := rr.takeSends(); got != tc.first {
				t.Fatalf("begin asked for %q, want %q", got, tc.first)
			}
			for i, s := range tc.script {
				if s.msg != nil {
					m := *s.msg
					m.Src, m.ReplicaID, m.Seq = roundTopo.ReplicaAddr(s.p, s.replica, 0), uint32(s.replica), rr.parts[s.p].seq
					if s.stale {
						m.Seq--
					}
					rr.Reply(&m)
				} else {
					rr.Tick(roundT0.Add(s.at))
				}
				if rr.redirected { // the driver's part, as in perform
					rr.redirected = false
					if tc.publish != nil {
						src.Publish(tc.publish)
					}
					if _, advanced := rr.cfg.ShardMap.Refresh(); advanced {
						rr.regroup()
					} else {
						rr.fail(ErrWrongShard)
					}
				}
				if got := rr.takeSends(); got != s.sends {
					t.Fatalf("step %d asked for %q, want %q", i, got, s.sends)
				}
			}
			if !errors.Is(rr.err, tc.wantErr) || (tc.wantErr == nil) != (rr.err == nil) {
				t.Fatalf("round error %v, want %v", rr.err, tc.wantErr)
			}
			if rr.open != 0 {
				t.Fatalf("%d partitions still open", rr.open)
			}
			for i, w := range tc.want {
				if got := string(rr.out[i].Value); got != w {
					t.Errorf("key %d read %q, want %q", i, got, w)
				}
			}
			if tc.probe != nil {
				tc.probe(t, rr)
			}
		})
	}
}
