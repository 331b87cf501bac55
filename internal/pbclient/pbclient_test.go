package pbclient

import (
	"sync/atomic"
	"testing"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/message"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

// fakePrimary answers reads, and commits every submitted transaction,
// recording what it saw.
type fakePrimary struct {
	lastTxn  chan message.Txn
	lastTS   chan timestamp.Timestamp
	decision bool
}

func startFake(t *testing.T, net *transport.Inproc, tp topo.Topology, decision bool) *fakePrimary {
	t.Helper()
	f := &fakePrimary{
		lastTxn:  make(chan message.Txn, 16),
		lastTS:   make(chan timestamp.Timestamp, 16),
		decision: decision,
	}
	for r := 0; r < tp.Replicas; r++ {
		for c := 0; c < tp.Cores; c++ {
			addr := tp.ReplicaAddr(0, r, uint32(c))
			var epHolder atomic.Pointer[transport.Endpoint]
			ep, err := net.Listen(addr, func(m *message.Message) {
				self := epHolder.Load()
				if self == nil {
					return
				}
				switch m.Type {
				case message.TypeMultiRead:
					(*self).Send(m.Src, &message.Message{
						Type: message.TypeMultiReadReply, Seq: m.Seq,
						Reads: []message.ReadResult{{Value: []byte("v0"), WTS: timestamp.Timestamp{Time: 1}, OK: true}},
					})
				case message.TypePBSubmit:
					select {
					case f.lastTxn <- m.Txn:
					default:
					}
					select {
					case f.lastTS <- m.TS:
					default:
					}
					(*self).Send(m.Src, &message.Message{
						Type: message.TypePBReply, TID: m.Txn.ID, OK: f.decision,
					})
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			epHolder.Store(&ep)
		}
	}
	return f
}

func newClient(t *testing.T, net *transport.Inproc, tp topo.Topology, clientTS bool) *Client {
	t.Helper()
	cl, err := New(Config{
		Topo: tp, ClientID: 7, Net: net, Clock: clock.NewManual(1000),
		ClientTimestamps: clientTS, Timeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestTxnBuffersAndSubmits(t *testing.T) {
	tp := topo.Topology{Partitions: 1, Replicas: 3, Cores: 2}
	net := transport.NewInproc(transport.InprocConfig{})
	defer net.Close()
	f := startFake(t, net, tp, true)
	cl := newClient(t, net, tp, true)

	txn := cl.Begin()
	v, err := txn.Read("k")
	if err != nil || string(v) != "v0" {
		t.Fatalf("read %q %v", v, err)
	}
	txn.Write("k", []byte("v1"))
	txn.Write("other", []byte("w"))
	ok, err := txn.Commit()
	if err != nil || !ok {
		t.Fatalf("commit %v %v", ok, err)
	}

	sub := <-f.lastTxn
	if len(sub.ReadSet) != 1 || sub.ReadSet[0].Key != "k" {
		t.Fatalf("read set %+v", sub.ReadSet)
	}
	if len(sub.WriteSet) != 2 {
		t.Fatalf("write set %+v", sub.WriteSet)
	}
	ts := <-f.lastTS
	if ts.IsZero() {
		t.Fatal("client timestamps enabled but TS is zero")
	}
	if ts.ClientID != 7 {
		t.Fatalf("timestamp client id %d", ts.ClientID)
	}
}

func TestKuaFuModeOmitsTimestamp(t *testing.T) {
	tp := topo.Topology{Partitions: 1, Replicas: 3, Cores: 2}
	net := transport.NewInproc(transport.InprocConfig{})
	defer net.Close()
	f := startFake(t, net, tp, true)
	cl := newClient(t, net, tp, false)

	txn := cl.Begin()
	txn.Write("k", []byte("v"))
	if ok, err := txn.Commit(); !ok || err != nil {
		t.Fatalf("commit %v %v", ok, err)
	}
	if ts := <-f.lastTS; !ts.IsZero() {
		t.Fatalf("primary-ordered mode sent timestamp %v", ts)
	}
}

func TestAbortDecisionPropagates(t *testing.T) {
	tp := topo.Topology{Partitions: 1, Replicas: 3, Cores: 2}
	net := transport.NewInproc(transport.InprocConfig{})
	defer net.Close()
	startFake(t, net, tp, false) // primary aborts everything
	cl := newClient(t, net, tp, true)

	txn := cl.Begin()
	txn.Write("k", []byte("v"))
	ok, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("aborted decision reported as commit")
	}
}

func TestReadYourWritesAndCaching(t *testing.T) {
	tp := topo.Topology{Partitions: 1, Replicas: 3, Cores: 2}
	net := transport.NewInproc(transport.InprocConfig{})
	defer net.Close()
	startFake(t, net, tp, true)
	cl := newClient(t, net, tp, true)

	txn := cl.Begin()
	txn.Write("k", []byte("mine"))
	if v, _ := txn.Read("k"); string(v) != "mine" {
		t.Fatalf("read-your-writes got %q", v)
	}
	// A cached read does not re-contact the replica (same value back).
	if v1, _ := txn.Read("fresh"); string(v1) != "v0" {
		t.Fatal("first read failed")
	}
	if v2, _ := txn.Read("fresh"); string(v2) != "v0" {
		t.Fatal("cached read changed")
	}
}

func TestCommitTimesOutWithoutPrimary(t *testing.T) {
	tp := topo.Topology{Partitions: 1, Replicas: 3, Cores: 1}
	net := transport.NewInproc(transport.InprocConfig{})
	defer net.Close()
	cl, err := New(Config{
		Topo: tp, ClientID: 1, Net: net, Clock: clock.NewManual(1),
		Timeout: 5 * time.Millisecond, Retries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	txn := cl.Begin()
	txn.Write("k", []byte("v"))
	if _, err := txn.Commit(); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}
