package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/topo"
)

// sendAndCollect pushes a batch through ep and waits until the receiver's
// delivery count reaches n.
func sendAndCollect(t *testing.T, ep Endpoint, batch []Outgoing, count *atomic.Int64, n int64) {
	t.Helper()
	if err := ep.SendBatch(batch); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	if err := ep.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	waitFor(t, "batch delivery", func() bool { return count.Load() == n })
}

// testBatchEquivalence checks the core SendBatch contract on any transport:
// a batch of N messages arrives exactly like N individual Sends would —
// same payloads, Src stamped to the sender — and the batch slice is
// reusable afterwards.
func testBatchEquivalence(t *testing.T, n Network, canSkip bool) {
	var got sync.Map
	var count atomic.Int64
	dst := message.Addr{Node: 1, Core: 0}
	if _, err := n.Listen(dst, func(m *message.Message) {
		got.Store(m.Seq, m)
		count.Add(1)
	}); err != nil {
		if canSkip {
			t.Skipf("cannot bind socket: %v", err)
		}
		t.Fatal(err)
	}
	src, err := n.Listen(message.Addr{Node: 0, Core: 0}, func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}

	// More messages than the UDP send ring (32) so the mid-batch flush path
	// runs too.
	const total = 50
	batch := make([]Outgoing, total)
	for i := range batch {
		batch[i] = Outgoing{Dst: dst, M: &message.Message{
			Type: message.TypePut, Seq: uint64(i),
			Key: fmt.Sprintf("k%d", i), Value: []byte{byte(i)},
		}}
	}
	sendAndCollect(t, src, batch, &count, total)

	for i := uint64(0); i < total; i++ {
		v, ok := got.Load(i)
		if !ok {
			t.Fatalf("message %d missing", i)
		}
		m := v.(*message.Message)
		if m.Key != fmt.Sprintf("k%d", i) || len(m.Value) != 1 || m.Value[0] != byte(i) {
			t.Fatalf("message %d corrupted: %+v", i, m)
		}
		if m.Src != src.Addr() {
			t.Fatalf("message %d Src = %v, want %v", i, m.Src, src.Addr())
		}
	}

	// The slice (not the messages) belongs to the caller again: refill and
	// resend.
	for i := range batch {
		batch[i].M = &message.Message{Type: message.TypePut, Seq: uint64(total + i)}
	}
	sendAndCollect(t, src, batch, &count, 2*total)
}

func TestInprocSendBatchEquivalence(t *testing.T) {
	n := NewInproc(InprocConfig{})
	defer n.Close()
	testBatchEquivalence(t, n, false)
}

func TestUDPSendBatchEquivalence(t *testing.T) {
	n := NewUDP("127.0.0.1", 28200, 8)
	defer n.Close()
	testBatchEquivalence(t, n, true)
}

// TestUDPSendBatchUnbatchedFallback runs the same contract over the portable
// one-datagram-per-syscall path, which an IPv6 host selects on every platform.
func TestUDPSendBatchUnbatchedFallback(t *testing.T) {
	n := NewUDP("::1", 28300, 8)
	defer n.Close()
	testBatchEquivalence(t, n, true)
	if got := n.Stats().DatagramsPerSend(); got != 1 {
		t.Fatalf("DatagramsPerSend = %v, want 1: the batched path ran", got)
	}
}

func TestUDPSendBatchAfterClose(t *testing.T) {
	n := NewUDP("127.0.0.1", 28400, 8)
	defer n.Close()
	ep, err := n.Listen(message.Addr{Node: 0, Core: 0}, func(*message.Message) {})
	if err != nil {
		t.Skipf("cannot bind UDP socket: %v", err)
	}
	ep.Close()
	batch := []Outgoing{{Dst: message.Addr{Node: 1}, M: &message.Message{}}}
	if err := ep.SendBatch(batch); !errors.Is(err, ErrClosed) {
		t.Fatalf("SendBatch after close: %v, want ErrClosed", err)
	}
	if err := ep.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after close: %v, want ErrClosed", err)
	}
}

// TestUDPRecvRingRace hammers one server endpoint from concurrent senders
// while its handler replies to every request — the recvmmsg buffer ring is
// reused across iterations while the reply path corks and flushes the same
// endpoint. Run under -race this is the memory-safety check for the ring.
func TestUDPRecvRingRace(t *testing.T) {
	n := NewUDP("127.0.0.1", 28500, 8)
	defer n.Close()

	serverAddr := message.Addr{Node: 0, Core: 0}
	var srvEp atomic.Pointer[udpEndpoint]
	srv, err := n.Listen(serverAddr, func(m *message.Message) {
		if ep := srvEp.Load(); ep != nil {
			ep.Send(m.Src, &message.Message{Type: message.TypePut, Seq: m.Seq, Value: m.Value})
		}
	})
	if err != nil {
		t.Skipf("cannot bind UDP socket: %v", err)
	}
	srvEp.Store(srv.(*udpEndpoint))

	const senders = 4
	const each = 300
	var wg sync.WaitGroup
	var replies atomic.Int64
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var seen atomic.Int64
			ep, err := n.Listen(message.Addr{Node: 10 + uint32(s), Core: 0}, func(m *message.Message) {
				if m.Type == message.TypePut {
					seen.Add(1)
					replies.Add(1)
				}
			})
			if err != nil {
				t.Error(err)
				return
			}
			// Windowed stream: keep up to 8 requests in flight so the
			// server's recv ring sees real multi-datagram bursts, without
			// UDP overrun losing enough to stall the test.
			payload := []byte("ring-race-payload")
			for i := 0; i < each; i++ {
				for int64(i)-seen.Load() >= 8 {
					time.Sleep(50 * time.Microsecond)
				}
				ep.Send(serverAddr, &message.Message{Type: message.TypePut, Seq: uint64(i), Value: payload})
			}
		}(s)
	}
	wg.Wait()
	// UDP may drop under burst; require most replies back rather than all.
	waitFor(t, "most replies", func() bool { return replies.Load() >= senders*each*9/10 })
}

// TestUDPStatsSurviveClose is the regression test for the counters being
// lost when Close dropped the endpoint list: post-close scrapes must still
// see the traffic.
func TestUDPStatsSurviveClose(t *testing.T) {
	n := NewUDP("127.0.0.1", 28600, 8)
	var count atomic.Int64
	dst := message.Addr{Node: 1, Core: 0}
	if _, err := n.Listen(dst, func(*message.Message) { count.Add(1) }); err != nil {
		t.Skipf("cannot bind UDP socket: %v", err)
	}
	src, err := n.Listen(message.Addr{Node: 0, Core: 0}, func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	const total = 20
	for i := 0; i < total; i++ {
		if err := src.Send(dst, &message.Message{Type: message.TypePut, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "deliveries", func() bool { return count.Load() == total })
	n.Close()

	s := n.Stats()
	if s.Sent < total || s.Delivered < total {
		t.Fatalf("post-close stats lost traffic: %+v", s)
	}
	if s.SendCalls == 0 || s.RecvCalls == 0 {
		t.Fatalf("post-close stats lost syscall counters: %+v", s)
	}
	if s.DatagramsPerSend() < 1 {
		t.Fatalf("DatagramsPerSend = %v, want >= 1", s.DatagramsPerSend())
	}
}

func TestUDPValidatePortMap(t *testing.T) {
	shape := func(partitions, cores int) topo.Topology {
		return topo.Topology{Partitions: partitions, Replicas: 3, Cores: cores}
	}
	n := NewUDP("127.0.0.1", 29000, 8)
	if err := n.ValidatePortMap(shape(1, 7), 64); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	// 65 partitions x 3 replicas = 195 replica nodes, reaching into the
	// epoch-change slots at 192.
	if err := n.ValidatePortMap(shape(65, 4), 4); !errors.Is(err, ErrPortCollision) {
		t.Fatalf("collision map: %v, want ErrPortCollision", err)
	}
	// 8 server threads leave no port for the replica's backup coordinator:
	// it would land on core 0 of the next node.
	if err := n.ValidatePortMap(shape(1, 8), 4); !errors.Is(err, ErrPortCollision) {
		t.Fatalf("stride too small for the recoverer: %v, want ErrPortCollision", err)
	}
	if _, err := n.Listen(shape(1, 8).RecovererAddr(0, 0), nil); !errors.Is(err, ErrPortCollision) {
		t.Fatalf("listen past the stride: %v, want ErrPortCollision", err)
	}
	// Enough clients to push the top port past 65535.
	if err := n.ValidatePortMap(shape(1, 4), 10000); !errors.Is(err, ErrPortRange) {
		t.Fatalf("overflow map: %v, want ErrPortRange", err)
	}
}

func TestUDPListenPortCollision(t *testing.T) {
	n := NewUDP("127.0.0.1", 28000, 4)
	defer n.Close()
	// Plain node 195 occupies the slot of partition 3's epoch-change node
	// (those slots start at 192).
	if _, err := n.Listen(message.Addr{Node: 195, Core: 0}, func(*message.Message) {}); err != nil {
		t.Skipf("cannot bind UDP socket: %v", err)
	}
	_, err := n.Listen(message.Addr{Node: topo.EpochNodeBase + 3, Core: 0}, func(*message.Message) {})
	if !errors.Is(err, ErrPortCollision) {
		t.Fatalf("colliding listen: %v, want ErrPortCollision", err)
	}
	// Same address twice is a different error: address in use.
	_, err = n.Listen(message.Addr{Node: 195, Core: 0}, func(*message.Message) {})
	if !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("duplicate listen: %v, want ErrAddrInUse", err)
	}
}
