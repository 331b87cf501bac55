package kuafu_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/faultnet"
	"meerkat/internal/kuafu"
	"meerkat/internal/pbclient"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

type cluster struct {
	topo topo.Topology
	net  *transport.Inproc
	reps []*kuafu.Replica
	next uint64
}

func newCluster(t *testing.T, cores int) *cluster {
	t.Helper()
	tp := topo.Topology{Partitions: 1, Replicas: 3, Cores: cores}
	c := &cluster{topo: tp, net: transport.NewInproc(transport.InprocConfig{})}
	for i := 0; i < 3; i++ {
		rep, err := kuafu.New(kuafu.Config{Topo: tp, Index: i, Net: c.net})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Start(); err != nil {
			t.Fatal(err)
		}
		c.reps = append(c.reps, rep)
	}
	t.Cleanup(func() {
		for _, r := range c.reps {
			r.Stop()
		}
		c.net.Close()
	})
	return c
}

func (c *cluster) load(key, val string) {
	ts := timestamp.Timestamp{Time: 1, ClientID: 0}
	for _, r := range c.reps {
		r.Store().Load(key, []byte(val), ts)
	}
}

func (c *cluster) client(t *testing.T) *pbclient.Client {
	t.Helper()
	c.next++
	cl, err := pbclient.New(pbclient.Config{
		Topo: c.topo, ClientID: c.next, Net: c.net, Clock: clock.NewReal(),
		Timeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestCommitAndReadBack(t *testing.T) {
	c := newCluster(t, 2)
	cl := c.client(t)

	txn := cl.Begin()
	txn.Write("k", []byte("v1"))
	ok, err := txn.Commit()
	if err != nil || !ok {
		t.Fatalf("commit: %v, %v", ok, err)
	}

	txn = cl.Begin()
	v, err := txn.Read("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v1" {
		t.Fatalf("read %q", v)
	}
	if ok, err := txn.Commit(); !ok || err != nil {
		t.Fatalf("read txn: %v, %v", ok, err)
	}
}

func TestStaleReadAborts(t *testing.T) {
	c := newCluster(t, 2)
	c.load("k", "v0")
	cl1, cl2 := c.client(t), c.client(t)

	// Both read, both try to write: the second submission must abort.
	t1, t2 := cl1.Begin(), cl2.Begin()
	if _, err := t1.Read("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Read("k"); err != nil {
		t.Fatal(err)
	}
	t1.Write("k", []byte("a"))
	t2.Write("k", []byte("b"))
	ok1, err1 := t1.Commit()
	ok2, err2 := t2.Commit()
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v %v", err1, err2)
	}
	if ok1 && ok2 {
		t.Fatal("both conflicting transactions committed")
	}
	if !ok1 && !ok2 {
		t.Fatal("both conflicting transactions aborted")
	}
}

func TestNoLostUpdates(t *testing.T) {
	c := newCluster(t, 4)
	c.load("ctr", "0")

	var committed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		cl := c.client(t)
		wg.Add(1)
		go func(cl *pbclient.Client) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				for attempt := 0; attempt < 30; attempt++ {
					txn := cl.Begin()
					v, err := txn.Read("ctr")
					if err != nil {
						continue
					}
					n, _ := strconv.Atoi(string(v))
					txn.Write("ctr", []byte(strconv.Itoa(n+1)))
					ok, err := txn.Commit()
					if err == nil && ok {
						mu.Lock()
						committed++
						mu.Unlock()
						break
					}
				}
			}
		}(cl)
	}
	wg.Wait()

	// Read through the primary's store (authoritative).
	v, okv := c.reps[0].Store().Read("ctr")
	if !okv {
		t.Fatal("ctr missing at primary")
	}
	n, _ := strconv.Atoi(string(v.Value))
	if int64(n) != committed {
		t.Fatalf("ctr = %d, committed = %d (lost updates)", n, committed)
	}
	if committed == 0 {
		t.Fatal("nothing committed")
	}
}

func TestBackupsConverge(t *testing.T) {
	c := newCluster(t, 2)
	cl := c.client(t)
	for i := 0; i < 30; i++ {
		txn := cl.Begin()
		txn.Write(fmt.Sprintf("k%d", i%5), []byte(fmt.Sprintf("v%d", i)))
		if ok, err := txn.Commit(); !ok || err != nil {
			t.Fatalf("commit %d: %v %v", i, ok, err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		want, _ := c.reps[0].Store().Read(key)
		for r := 1; r < 3; r++ {
			got, ok := c.reps[r].Store().Read(key)
			if !ok || string(got.Value) != string(want.Value) {
				t.Fatalf("backup %d has %s=%q, primary %q", r, key, got.Value, want.Value)
			}
		}
	}
}

func TestSharedLogGrows(t *testing.T) {
	c := newCluster(t, 2)
	cl := c.client(t)
	for i := 0; i < 10; i++ {
		txn := cl.Begin()
		txn.Write(fmt.Sprintf("k%d", i), []byte("v"))
		if ok, _ := txn.Commit(); !ok {
			t.Fatalf("commit %d failed", i)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got := c.reps[0].LogLen(); got != 10 {
		t.Fatalf("primary log has %d entries, want 10", got)
	}
	for r := 1; r < 3; r++ {
		if got := c.reps[r].LogLen(); got != 10 {
			t.Fatalf("backup %d log has %d entries, want 10", r, got)
		}
	}
	if !c.reps[0].IsPrimary() || c.reps[1].IsPrimary() {
		t.Fatal("primary designation wrong")
	}
}

func TestSubmitRetryIsIdempotent(t *testing.T) {
	// Lossy network: client retries must not double-apply a transaction.
	tp := topo.Topology{Partitions: 1, Replicas: 3, Cores: 2}
	net := faultnet.Wrap(transport.NewInproc(transport.InprocConfig{}),
		&faultnet.Plan{Seed: 3, Rules: []faultnet.Rule{faultnet.EveryLink(faultnet.Rule{DropProb: 0.05})}})
	var reps []*kuafu.Replica
	for i := 0; i < 3; i++ {
		rep, _ := kuafu.New(kuafu.Config{Topo: tp, Index: i, Net: net})
		if err := rep.Start(); err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
		net.Close()
	}()
	for _, r := range reps {
		r.Store().Load("ctr", []byte("0"), timestamp.Timestamp{Time: 1, ClientID: 0})
	}
	cl, err := pbclient.New(pbclient.Config{
		Topo: tp, ClientID: 1, Net: net, Clock: clock.NewReal(),
		Timeout: 10 * time.Millisecond, Retries: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	committed := 0
	for i := 0; i < 20; i++ {
		txn := cl.Begin()
		v, err := txn.Read("ctr")
		if err != nil {
			continue
		}
		n, _ := strconv.Atoi(string(v))
		txn.Write("ctr", []byte(strconv.Itoa(n+1)))
		if ok, err := txn.Commit(); err == nil && ok {
			committed++
		}
	}
	time.Sleep(50 * time.Millisecond)
	v, _ := reps[0].Store().Read("ctr")
	n, _ := strconv.Atoi(string(v.Value))
	if n != committed {
		t.Fatalf("ctr = %d, committed = %d", n, committed)
	}
}
