package meerkat

import (
	"context"
	"fmt"
	"strconv"
	"testing"
	"time"
)

func TestUDPTransportCluster(t *testing.T) {
	// The full protocol over real loopback UDP sockets: serialization,
	// kernel stack, and all.
	c, err := Open(Config{
		Transport:   TransportUDP,
		UDPBasePort: 27500,
		Cores:       2,
	})
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer c.Close()
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Put("k", []byte("over-udp")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.GetStrong("k")
	if err != nil || string(v) != "over-udp" {
		t.Fatalf("get: %q, %v", v, err)
	}

	// A short RMW sequence exercises validation over the lossy-capable
	// stack too.
	c.Load("ctr", []byte("0"))
	for i := 0; i < 5; i++ {
		err := cl.Run(context.Background(), func(txn *Txn) error {
			v, err := txn.Read("ctr")
			if err != nil {
				return err
			}
			n, _ := strconv.Atoi(string(v))
			txn.Write("ctr", []byte(strconv.Itoa(n+1)))
			return nil
		})
		if err != nil {
			t.Fatalf("rmw %d over udp: %v", i, err)
		}
	}
	v, _ = cl.GetStrong("ctr")
	if string(v) != "5" {
		t.Fatalf("ctr = %q", v)
	}
}

func TestEpochChangeCompaction(t *testing.T) {
	c := newTestDB(t, Config{CompactOnEpochChange: true})
	cl := newDBClient(t, c)
	for i := 0; i < 30; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Let async commits land so records are final before the checkpoint.
	time.Sleep(50 * time.Millisecond)
	before := c.replicaAt(0, 0).Records()
	if before == 0 {
		t.Fatal("no records accumulated")
	}
	if err := c.Admin().EpochChange(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	after := c.replicaAt(0, 0).Records()
	if after >= before {
		t.Fatalf("compaction did not trim: %d -> %d records", before, after)
	}
	// The data survives trimming, and the cluster keeps serving.
	v, err := cl.GetStrong("k7")
	if err != nil || string(v) != "v" {
		t.Fatalf("read after compaction: %q, %v", v, err)
	}
	if err := cl.Put("fresh", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestRecordsAccumulateWithoutCompaction(t *testing.T) {
	c := newTestDB(t, Config{})
	cl := newDBClient(t, c)
	for i := 0; i < 10; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(30 * time.Millisecond)
	if got := c.replicaAt(0, 0).Records(); got != 10 {
		t.Fatalf("records = %d, want 10", got)
	}
}
