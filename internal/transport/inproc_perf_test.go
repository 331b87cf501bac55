package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"meerkat/internal/message"
)

// TestInprocBatchedDelivery checks that batched draining neither drops nor
// reorders: a burst much larger than Batch arrives complete and in order.
func TestInprocBatchedDelivery(t *testing.T) {
	n := NewInproc(InprocConfig{Batch: 8})
	defer n.Close()
	var got []uint64
	done := make(chan struct{})
	dst := message.Addr{Node: 1, Core: 0}
	const total = 500
	n.Listen(dst, func(m *message.Message) {
		got = append(got, m.Seq) // single delivery goroutine: no lock needed
		if len(got) == total {
			close(done)
		}
	})
	src, _ := n.Listen(message.Addr{Node: 0, Core: 0}, func(*message.Message) {})
	for i := uint64(0); i < total; i++ {
		src.Send(dst, &message.Message{Type: message.TypePut, Seq: i})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d/%d delivered", len(got), total)
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("got[%d] = %d: batched drain reordered", i, s)
		}
	}
}

// BenchmarkInprocRoundTrip measures a request/reply echo through the
// in-process network: client send → server handler → reply send → client
// inbox. The fresh sub-benchmark allocates both messages per round trip (the
// pre-pooling behavior); pooled recycles them through the message pool, the
// ownership hand-off the transports are wired for.
func BenchmarkInprocRoundTrip(b *testing.B) {
	for _, mode := range []struct {
		name   string
		pooled bool
	}{{"fresh", false}, {"pooled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			n := NewInproc(InprocConfig{})
			defer n.Close()
			srvAddr := message.Addr{Node: 1, Core: 0}
			var srv atomic.Pointer[Endpoint]
			pooled := mode.pooled
			sep, err := n.Listen(srvAddr, func(m *message.Message) {
				var reply *message.Message
				if pooled {
					reply = message.AcquireMessage()
				} else {
					reply = &message.Message{}
				}
				reply.Type = message.TypePutReply
				reply.Seq = m.Seq
				dst := m.Src
				if pooled {
					message.ReleaseMessage(m)
				}
				if ep := srv.Load(); ep != nil {
					(*ep).Send(dst, reply)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			srv.Store(&sep)
			inbox := NewInbox(16)
			cli, err := n.Listen(message.Addr{Node: 2, Core: 0}, inbox.Handle)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var req *message.Message
				if pooled {
					req = message.AcquireMessage()
				} else {
					req = &message.Message{}
				}
				req.Type = message.TypePut
				req.Seq = uint64(i)
				if err := cli.Send(srvAddr, req); err != nil {
					b.Fatal(err)
				}
				reply := <-inbox.C
				if reply.Seq != uint64(i) {
					b.Fatalf("reply %d for request %d", reply.Seq, i)
				}
				if pooled {
					message.ReleaseMessage(reply) // client is the reply's last owner
				}
			}
		})
	}
}
