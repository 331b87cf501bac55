package transport

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"meerkat/internal/message"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestInprocDelivery(t *testing.T) {
	n := NewInproc(InprocConfig{})
	defer n.Close()

	var got atomic.Pointer[message.Message]
	dst := message.Addr{Node: 1, Core: 0}
	if _, err := n.Listen(dst, func(m *message.Message) { got.Store(m) }); err != nil {
		t.Fatal(err)
	}
	src, err := n.Listen(message.Addr{Node: 0, Core: 0}, func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}

	m := &message.Message{Type: message.TypePut, Key: "k", Value: []byte("v")}
	if err := src.Send(dst, m); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool { return got.Load() != nil })
	rm := got.Load()
	if rm.Key != "k" || string(rm.Value) != "v" {
		t.Fatalf("got %+v", rm)
	}
	if rm.Src != src.Addr() {
		t.Fatalf("Src = %v, want %v", rm.Src, src.Addr())
	}
}

func TestInprocAddrInUse(t *testing.T) {
	n := NewInproc(InprocConfig{})
	defer n.Close()
	addr := message.Addr{Node: 1, Core: 2}
	if _, err := n.Listen(addr, func(*message.Message) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen(addr, func(*message.Message) {}); err != ErrAddrInUse {
		t.Fatalf("err = %v, want ErrAddrInUse", err)
	}
}

func TestInprocPerCoreOrdering(t *testing.T) {
	// Messages between one src and one dst core must arrive in send order
	// when no delay/drop is configured (single queue, single drainer).
	n := NewInproc(InprocConfig{})
	defer n.Close()

	var mu sync.Mutex
	var seqs []uint64
	dst := message.Addr{Node: 1, Core: 3}
	if _, err := n.Listen(dst, func(m *message.Message) {
		mu.Lock()
		seqs = append(seqs, m.Seq)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	src, _ := n.Listen(message.Addr{Node: 0, Core: 0}, func(*message.Message) {})
	const total = 500
	for i := uint64(0); i < total; i++ {
		if err := src.Send(dst, &message.Message{Type: message.TypePut, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all messages", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seqs) == total
	})
	mu.Lock()
	defer mu.Unlock()
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("seqs[%d] = %d: out of order", i, s)
		}
	}
}

// TestInprocCloseJoinsDelivery: closing an endpoint returns only once its
// handler has, and closing the network leaves no delivery goroutine behind —
// checked at once, with no grace period.
func TestInprocCloseJoinsDelivery(t *testing.T) {
	loops := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*inprocEndpoint).run")
	}
	before := loops() // an earlier test may have left a network open
	n := NewInproc(InprocConfig{})
	var entered, finished atomic.Bool
	dst := message.Addr{Node: 1, Core: 0}
	ep, _ := n.Listen(dst, func(*message.Message) {
		entered.Store(true)
		time.Sleep(20 * time.Millisecond)
		finished.Store(true)
	})
	src, _ := n.Listen(message.Addr{Node: 0, Core: 0}, func(*message.Message) {})
	src.Send(dst, &message.Message{Type: message.TypePut})
	waitFor(t, "the handler to start", entered.Load)
	ep.Close()
	if !finished.Load() {
		t.Fatal("Close returned while the handler was still running")
	}
	for core := uint32(1); core < 8; core++ {
		n.Listen(message.Addr{Node: 1, Core: core}, func(*message.Message) {})
	}
	n.Close()
	if after := loops(); after != before {
		t.Fatalf("%d delivery goroutines outlived Inproc.Close", after-before)
	}
}

func TestInprocUnknownDestinationDrops(t *testing.T) {
	n := NewInproc(InprocConfig{})
	defer n.Close()
	src, _ := n.Listen(message.Addr{Node: 0, Core: 0}, func(*message.Message) {})
	if err := src.Send(message.Addr{Node: 9, Core: 9}, &message.Message{Type: message.TypePut}); err != nil {
		t.Fatalf("send to unknown dest errored: %v", err)
	}
	if n.Stats().Dropped != 1 {
		t.Fatal("unknown destination not counted as drop")
	}
}

func TestInprocSendAfterClose(t *testing.T) {
	n := NewInproc(InprocConfig{})
	defer n.Close()
	src, _ := n.Listen(message.Addr{Node: 0, Core: 0}, func(*message.Message) {})
	src.Close()
	if err := src.Send(message.Addr{Node: 1, Core: 0}, &message.Message{}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Double close must be safe.
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	// Address is reusable after close.
	if _, err := n.Listen(message.Addr{Node: 0, Core: 0}, func(*message.Message) {}); err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
}

func TestInprocListenAfterNetworkClose(t *testing.T) {
	n := NewInproc(InprocConfig{})
	n.Close()
	if _, err := n.Listen(message.Addr{}, func(*message.Message) {}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestInprocQueueOverflowDrops(t *testing.T) {
	n := NewInproc(InprocConfig{QueueDepth: 4})
	defer n.Close()
	release := make(chan struct{})
	var count atomic.Int64
	dst := message.Addr{Node: 1, Core: 0}
	n.Listen(dst, func(*message.Message) {
		<-release // stall the drainer so the queue fills
		count.Add(1)
	})
	src, _ := n.Listen(message.Addr{Node: 0, Core: 0}, func(*message.Message) {})
	for i := 0; i < 50; i++ {
		src.Send(dst, &message.Message{Type: message.TypePut})
	}
	if n.Stats().Dropped == 0 {
		t.Fatal("no drops despite tiny queue and stalled drainer")
	}
	close(release)
}

func TestInprocConcurrentSenders(t *testing.T) {
	n := NewInproc(InprocConfig{})
	defer n.Close()
	var count atomic.Int64
	dst := message.Addr{Node: 1, Core: 0}
	n.Listen(dst, func(*message.Message) { count.Add(1) })

	const senders, each = 8, 500
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ep, err := n.Listen(message.Addr{Node: 10 + uint32(s), Core: 0}, func(*message.Message) {})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < each; i++ {
				ep.Send(dst, &message.Message{Type: message.TypePut})
			}
		}(s)
	}
	wg.Wait()
	waitFor(t, "all deliveries", func() bool { return count.Load() == senders*each })
}

func TestInbox(t *testing.T) {
	in := NewInbox(2)
	in.Handle(&message.Message{Seq: 1})
	in.Handle(&message.Message{Seq: 2})
	in.Handle(&message.Message{Seq: 3}) // dropped: buffer full
	if len(in.C) != 2 {
		t.Fatalf("buffered %d, want 2", len(in.C))
	}
	if m := <-in.C; m.Seq != 1 {
		t.Fatalf("first = %d, want 1", m.Seq)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	n := NewUDP("127.0.0.1", 28700, 8)
	defer n.Close()

	serverAddr := message.Addr{Node: 0, Core: 1}
	var got atomic.Pointer[message.Message]
	server, err := n.Listen(serverAddr, func(m *message.Message) { got.Store(m) })
	if err != nil {
		t.Skipf("cannot bind UDP socket: %v", err)
	}
	_ = server
	client, err := n.Listen(message.Addr{Node: 1, Core: 0}, func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}

	m := &message.Message{Type: message.TypePut, Key: "k", Value: []byte("udp")}
	if err := client.Send(serverAddr, m); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "udp delivery", func() bool { return got.Load() != nil })
	rm := got.Load()
	if rm.Key != "k" || string(rm.Value) != "udp" {
		t.Fatalf("got %+v", rm)
	}
	if rm.Src != client.Addr() {
		t.Fatalf("Src = %v, want %v", rm.Src, client.Addr())
	}
}

func TestUDPReplyPath(t *testing.T) {
	n := NewUDP("127.0.0.1", 28800, 8)
	defer n.Close()

	serverAddr := message.Addr{Node: 0, Core: 0}
	var srvEp atomic.Pointer[udpEndpoint]
	srv, err := n.Listen(serverAddr, func(m *message.Message) {
		if ep := srvEp.Load(); ep != nil {
			ep.Send(m.Src, &message.Message{Type: message.TypePutReply, Seq: m.Seq})
		}
	})
	if err != nil {
		t.Skipf("cannot bind UDP socket: %v", err)
	}
	srvEp.Store(srv.(*udpEndpoint))

	inbox := NewInbox(16)
	client, err := n.Listen(message.Addr{Node: 1, Core: 0}, inbox.Handle)
	if err != nil {
		t.Fatal(err)
	}
	client.Send(serverAddr, &message.Message{Type: message.TypePut, Seq: 77})
	select {
	case m := <-inbox.C:
		if m.Type != message.TypePutReply || m.Seq != 77 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply")
	}
}

func TestUDPCoreOutOfRange(t *testing.T) {
	n := NewUDP("127.0.0.1", 28900, 2)
	defer n.Close()
	if _, err := n.Listen(message.Addr{Node: 0, Core: 5}, func(*message.Message) {}); err == nil {
		t.Fatal("expected error for out-of-range core")
	}
}

func TestUDPPortMapping(t *testing.T) {
	n := NewUDP("127.0.0.1", 1000, 16)
	if p := n.Port(message.Addr{Node: 2, Core: 3}); p != 1000+2*16+3 {
		t.Fatalf("Port = %d", p)
	}
}
