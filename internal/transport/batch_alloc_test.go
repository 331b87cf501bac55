package transport

import (
	"testing"

	"meerkat/internal/message"
)

// The batched send path must stay allocation-free in steady state: encode
// into retained ring-slot buffers, prebuilt syscall closures, cached
// sockaddrs. These gates hold on both the Linux sendmmsg path and the
// portable fallback (the ring machinery is shared; only the final write
// differs), so they run everywhere and keep non-Linux ports honest too.
//
// A send hands its messages over for good, so each round builds its batch
// from the pool; the receiving handlers release, as a replica core does, and
// the structs cycle without touching the allocator.

func TestInprocSendBatchAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	n := NewInproc(InprocConfig{})
	defer n.Close()
	dst := message.Addr{Node: 1, Core: 0}
	batch := make([]Outgoing, 3)
	consumed := make(chan struct{}, len(batch))
	if _, err := n.Listen(dst, func(m *message.Message) {
		message.ReleaseMessage(m)
		consumed <- struct{}{}
	}); err != nil {
		t.Fatal(err)
	}
	src, err := n.Listen(message.Addr{Node: 0, Core: 0}, message.ReleaseMessage)
	if err != nil {
		t.Fatal(err)
	}
	// Each round waits for its messages to be consumed, so the next round's
	// acquires find them in the pool (AllocsPerRun runs on one P: without
	// the wait the receiver would not run until all rounds had sent).
	send := func() {
		fillAllocBatch(batch, dst)
		if err := src.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
		for range batch {
			<-consumed
		}
	}
	send() // warm queues
	if allocs := testing.AllocsPerRun(200, send); allocs > 0 {
		t.Fatalf("inproc SendBatch allocates %.1f times per call, want 0", allocs)
	}
}

func TestUDPSendBatchAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	n := NewUDP("127.0.0.1", 28950, 8)
	defer n.Close()
	dst := message.Addr{Node: 1, Core: 0}
	// The sender recycles each struct right after encoding it, so this gate
	// needs no wait: it counts the send side alone (the receive loop rarely
	// gets the one P during the measurement; TestUDPReceiveAllocGate covers
	// it).
	if _, err := n.Listen(dst, message.ReleaseMessage); err != nil {
		t.Skipf("cannot bind UDP socket: %v", err)
	}
	src, err := n.Listen(message.Addr{Node: 0, Core: 0}, message.ReleaseMessage)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Outgoing, 3)
	send := func() {
		fillAllocBatch(batch, dst)
		if err := src.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	send() // warm ring buffers and the sockaddr cache
	if allocs := testing.AllocsPerRun(200, send); allocs > 0 {
		t.Fatalf("UDP SendBatch allocates %.1f times per call, want 0", allocs)
	}
}

// fillAllocBatch fills batch with pooled messages shaped like a commit
// fan-out: a few small messages to one destination.
func fillAllocBatch(batch []Outgoing, dst message.Addr) {
	for i := range batch {
		m := message.AcquireMessage()
		m.Type, m.Seq, m.Key, m.Value = message.TypePut, uint64(i), "alloc-gate", allocGateValue
		batch[i] = Outgoing{Dst: dst, M: m}
	}
}

var allocGateValue = []byte("v")
