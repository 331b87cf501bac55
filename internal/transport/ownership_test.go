package transport

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
)

// The message ownership contract (DESIGN.md §7), seen from the transports:
// Send hands the struct over for good, its final consumer may recycle it, and
// a recycled struct never carries a slice anyone else can still reach.

// echoServer binds addr on n with a handler shaped like a replica core: read
// the request, send a pooled reply, recycle the request.
func echoServer(tb testing.TB, n Network, addr message.Addr) {
	tb.Helper()
	var self atomic.Pointer[Endpoint]
	ep, err := n.Listen(addr, func(m *message.Message) {
		reply := message.AcquireMessage()
		reply.Type, reply.Seq = message.TypeMultiReadReply, m.Seq
		dst := m.Src
		message.ReleaseMessage(m)
		if ep := self.Load(); ep != nil {
			(*ep).Send(dst, reply)
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	self.Store(&ep)
}

// recvReply takes the next message from in or fails the test.
func recvReply(tb testing.TB, in *Inbox) *message.Message {
	tb.Helper()
	select {
	case m := <-in.C:
		return m
	case <-time.After(5 * time.Second):
		tb.Fatal("no reply")
		return nil
	}
}

// TestInprocRoundTripAllocGate pins the tentpole at the transport: a
// request/reply exchange whose endpoints follow the contract — acquire, send,
// final consumer releases — allocates nothing per round trip, whether the
// reply is handed to a client on the server's goroutine or queued for a
// server's delivery loop.
func TestInprocRoundTripAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, c := range []struct {
		name string
		cli  message.Addr
	}{{"client-address", message.Addr{Node: topo.ClientNodeBase}}, {"server-address", message.Addr{Node: 2}}} {
		t.Run(c.name, func(t *testing.T) {
			n := NewInproc(InprocConfig{})
			defer n.Close()
			srv := message.Addr{Node: 1}
			echoServer(t, n, srv)
			in := NewInbox(4)
			cli, err := n.Listen(c.cli, in.Handle)
			if err != nil {
				t.Fatal(err)
			}
			seq := uint64(0)
			roundTrip := func() {
				seq++
				req := message.AcquireMessage()
				req.Type, req.Seq = message.TypeMultiRead, seq
				if err := cli.Send(srv, req); err != nil {
					t.Fatal(err)
				}
				reply := <-in.C // no timer: it would be the only allocation here
				if reply.Seq != seq {
					t.Fatalf("reply %d for request %d", reply.Seq, seq)
				}
				message.ReleaseMessage(reply)
			}
			roundTrip() // warm the pool
			if allocs := testing.AllocsPerRun(500, roundTrip); allocs != 0 {
				t.Fatalf("inproc round trip allocates %v objects, want 0", allocs)
			}
		})
	}
}

// TestUDPReceiveAllocGate pins the receive loop: the struct a datagram
// decodes into comes from the pool, its keys and values are cut from the arena
// the struct keeps and its sets fill the arrays it keeps, so a message costs
// the receive path nothing — a multi-read's ten keys or ten values and a
// validate's sets included.
func TestUDPReceiveAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	n := NewUDP("127.0.0.1", 28990, 8)
	defer n.Close()
	dst := message.Addr{Node: 1}
	got := make(chan struct{}, 1)
	if _, err := n.Listen(dst, func(m *message.Message) {
		message.ReleaseMessage(m)
		got <- struct{}{}
	}); err != nil {
		t.Skipf("cannot bind UDP socket: %v", err)
	}
	src, err := n.Listen(message.Addr{Node: 0}, message.ReleaseMessage)
	if err != nil {
		t.Fatal(err)
	}
	txn := message.Txn{
		ID:       timestamp.TxnID{Seq: 1, ClientID: 1},
		ReadSet:  []message.ReadSetEntry{{Key: "user_1"}},
		WriteSet: []message.WriteSetEntry{{Key: "user_1", Value: []byte("v")}},
	}
	keys := make([]string, 10)
	reads := make([]message.ReadResult, 10)
	for i := range keys {
		keys[i] = fmt.Sprintf("user_%d", i)
		reads[i] = message.ReadResult{Value: make([]byte, 64), OK: true}
	}
	for _, c := range []struct {
		name    string
		fill    func(m *message.Message)
		payload float64
	}{
		{"commit", func(m *message.Message) { m.Type, m.TID = message.TypeCommit, txn.ID }, 0},
		{"validate", func(m *message.Message) { m.Type, m.Txn = message.TypeValidate, txn }, 0},
		{"multi-read of 10 keys", func(m *message.Message) { m.Type = message.TypeMultiRead; copy(m.OwnKeys(10), keys) }, 0},
		{"multi-read reply of 10 values", func(m *message.Message) { m.Type = message.TypeMultiReadReply; copy(m.OwnReads(10), reads) }, 0},
	} {
		send := func() {
			m := message.AcquireMessage()
			c.fill(m)
			if err := src.Send(dst, m); err != nil {
				t.Fatal(err)
			}
			<-got // loopback does not drop; no timer, which would allocate
		}
		send() // warm the ring buffers, the sockaddr cache and the pool
		if allocs := testing.AllocsPerRun(200, send); allocs > c.payload {
			t.Errorf("%s over UDP allocates %v objects per message, want <= %v", c.name, allocs, c.payload)
		}
	}
}

// TestInboxDropAndDrainReleaseOnce covers the Inbox's two discard paths:
// overflow and Drain each release what they discard, exactly once (poison
// mode panics on a second release), and nothing the Inbox still holds or has
// handed out is touched.
func TestInboxDropAndDrainReleaseOnce(t *testing.T) {
	defer message.SetPoisonOnRelease(message.SetPoisonOnRelease(true))
	in := NewInbox(2)
	msgs := make([]*message.Message, 4)
	for i := range msgs {
		msgs[i] = &message.Message{Type: message.TypePutReply, Seq: uint64(i + 1)}
		in.Handle(msgs[i])
	}
	for i, m := range msgs {
		if dropped := i >= 2; dropped != (m.TID == message.PoisonTID) {
			t.Fatalf("message %d: dropped=%v but poisoned=%v", i, dropped, !dropped)
		}
	}
	kept := <-in.C // the taker owns it now
	in.Drain()
	if kept != msgs[0] || kept.Seq != 1 || kept.Type != message.TypePutReply {
		t.Fatalf("Drain touched a message already handed out: %+v", kept)
	}
	if msgs[1].TID != message.PoisonTID {
		t.Fatal("Drain did not release the message it discarded")
	}
	in.Drain() // empty: nothing to release, nothing to double-release
	message.ReleaseMessage(kept)
}

// TestLiteralSenderKeepsItsSlices is the benchmark probes' pattern: a caller
// sends plain literals whose Keys and Txn point at its own long-lived slices
// and goes on reading those slices. Ten thousand round trips through
// receivers that recycle every struct must leave them untouched — release
// zeroes slice headers, it never keeps an array. Over UDP that is what stands
// between the caller and the receive loop: a struct released after Encode with
// its capacity intact would be the next datagram's DecodeInto target, and the
// decoder would write someone else's keys into the caller's array.
func TestLiteralSenderKeepsItsSlices(t *testing.T) {
	defer message.SetPoisonOnRelease(message.SetPoisonOnRelease(false))
	for _, tc := range []struct {
		name string
		net  Network
	}{
		{"inproc", NewInproc(InprocConfig{})},
		{"udp", NewUDP("127.0.0.1", 29010, 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.net
			defer n.Close()
			srv := message.Addr{Node: 1}
			echoServer(t, n, srv)
			in := NewInbox(4)
			cli, err := n.Listen(message.Addr{Node: 2}, in.Handle)
			if err != nil {
				t.Fatal(err)
			}
			keys := []string{"k0", "k1", "k2"}
			txn := message.Txn{
				ID:       timestamp.TxnID{Seq: 9, ClientID: 9},
				ReadSet:  []message.ReadSetEntry{{Key: "r0", VHash: 1}, {Key: "r1", VHash: 2}},
				WriteSet: []message.WriteSetEntry{{Key: "w0", Value: []byte("value")}},
			}
			check := func(round int) {
				t.Helper()
				if fmt.Sprint(keys) != "[k0 k1 k2]" || len(txn.ReadSet) != 2 || txn.ReadSet[1].Key != "r1" ||
					txn.ReadSet[1].VHash != 2 || len(txn.WriteSet) != 1 || string(txn.WriteSet[0].Value) != "value" {
					t.Fatalf("round %d: sender's slices changed: keys=%v txn=%+v", round, keys, txn)
				}
			}
			for i := 1; i <= 10000; i++ {
				// Interleave pooled traffic carrying other payloads, so a
				// struct that kept a stale array has something to scribble.
				other := message.AcquireMessage()
				other.Type, other.Seq, other.Keys = message.TypeMultiRead, uint64(i), []string{"x", "y"}
				other.Txn.WriteSet = []message.WriteSetEntry{{Key: "z", Value: []byte("other")}}
				if err := cli.Send(srv, other); err != nil {
					t.Fatal(err)
				}
				message.ReleaseMessage(recvReply(t, in))

				if err := cli.Send(srv, &message.Message{Type: message.TypeMultiRead, Seq: uint64(i), Keys: keys, Txn: txn}); err != nil {
					t.Fatal(err)
				}
				message.ReleaseMessage(recvReply(t, in))
				if i%1000 == 0 {
					check(i)
				}
			}
			check(10000)
		})
	}
}
