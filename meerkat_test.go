package meerkat

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// runOnce is one attempt of fn from Begin through Commit, for tests that
// count commits and aborts themselves instead of letting Run retry.
func runOnce(cl *Client, fn func(*Txn) error) (bool, error) {
	txn := cl.Begin()
	if err := fn(txn); err != nil {
		return false, err
	}
	return txn.Commit()
}

func TestCommitAndReadBack(t *testing.T) {
	c := newTestDB(t, Config{})
	cl := newDBClient(t, c)

	txn := cl.Begin()
	txn.Write("k", []byte("v1"))
	committed, err := txn.Commit()
	if err != nil || !committed {
		t.Fatalf("commit = %v, %v", committed, err)
	}

	got, err := cl.GetStrong("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v1" {
		t.Fatalf("Get = %q, want %q", got, "v1")
	}
}

func TestReadMissingKey(t *testing.T) {
	c := newTestDB(t, Config{})
	cl := newDBClient(t, c)

	txn := cl.Begin()
	v, err := txn.Read("missing")
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("missing key read %q", v)
	}
	committed, err := txn.Commit()
	if err != nil || !committed {
		t.Fatalf("read-only txn on missing key: %v, %v", committed, err)
	}
}

func TestReadYourWrites(t *testing.T) {
	c := newTestDB(t, Config{})
	cl := newDBClient(t, c)
	c.Load("k", []byte("old"))

	txn := cl.Begin()
	txn.Write("k", []byte("new"))
	v, err := txn.Read("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "new" {
		t.Fatalf("read-your-writes got %q", v)
	}
	if ok, err := txn.Commit(); !ok || err != nil {
		t.Fatalf("commit = %v, %v", ok, err)
	}
}

func TestRMWSequence(t *testing.T) {
	c := newTestDB(t, Config{})
	cl := newDBClient(t, c)
	c.Load("ctr", []byte("0"))

	for i := 0; i < 20; i++ {
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
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	v, _ := cl.GetStrong("ctr")
	if string(v) != "20" {
		t.Fatalf("ctr = %q, want 20", v)
	}
}

func TestConflictingWritersSerialized(t *testing.T) {
	// Concurrent counter increments from many clients: the final value
	// must equal the number of committed increments (no lost updates).
	c := newTestDB(t, Config{Cores: 4})
	c.Load("ctr", []byte("0"))

	const clients = 8
	const perClient = 25
	var committedTotal int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cl := newDBClient(t, c)
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
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
					t.Errorf("Run: %v", err)
					return
				}
				mu.Lock()
				committedTotal++
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()

	cl := newDBClient(t, c)
	v, err := cl.GetStrong("ctr")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := strconv.Atoi(string(v))
	if int64(n) != committedTotal {
		t.Fatalf("ctr = %d, but %d increments committed (lost updates!)", n, committedTotal)
	}
	if n == 0 {
		t.Fatal("no increments committed at all")
	}
}

func TestReplicasConverge(t *testing.T) {
	c := newTestDB(t, Config{})
	cl := newDBClient(t, c)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i%10)
		if err := cl.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Commit messages are async; give them a moment to land everywhere.
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		var vals []string
		for r := 0; r < 3; r++ {
			rep := c.replicaAt(0, r)
			v, ok := rep.Store().Read(key)
			if !ok {
				t.Fatalf("replica %d missing key %s", r, key)
			}
			vals = append(vals, string(v.Value))
		}
		if vals[0] != vals[1] || vals[1] != vals[2] {
			t.Fatalf("replicas diverge on %s: %v", key, vals)
		}
	}
}

func TestWriteSkewPrevented(t *testing.T) {
	// Serializable isolation must prevent write skew: invariant a+b >= 0,
	// each txn checks the sum then decrements one of the two keys.
	c := newTestDB(t, Config{Cores: 4})
	c.Load("a", []byte("50"))
	c.Load("b", []byte("50"))

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		cl := newDBClient(t, c)
		key := "a"
		if i%2 == 1 {
			key = "b"
		}
		wg.Add(1)
		go func(cl *Client, key string) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				runOnce(cl, func(txn *Txn) error {
					av, err := txn.Read("a")
					if err != nil {
						return err
					}
					bv, err := txn.Read("b")
					if err != nil {
						return err
					}
					a, _ := strconv.Atoi(string(av))
					b, _ := strconv.Atoi(string(bv))
					if a+b >= 10 {
						cur := a
						if key == "b" {
							cur = b
						}
						txn.Write(key, []byte(strconv.Itoa(cur-10)))
					}
					return nil
				})
			}
		}(cl, key)
	}
	wg.Wait()

	cl := newDBClient(t, c)
	av, _ := cl.GetStrong("a")
	bv, _ := cl.GetStrong("b")
	a, _ := strconv.Atoi(string(av))
	b, _ := strconv.Atoi(string(bv))
	if a+b < 0 {
		t.Fatalf("write skew violated invariant: a=%d b=%d", a, b)
	}
}

func TestEmptyTxnCommits(t *testing.T) {
	c := newTestDB(t, Config{})
	cl := newDBClient(t, c)
	txn := cl.Begin()
	ok, err := txn.Commit()
	if !ok || err != nil {
		t.Fatalf("empty txn: %v, %v", ok, err)
	}
}

func TestEvenReplicasRejected(t *testing.T) {
	if _, err := Open(Config{Replicas: 4}); err == nil {
		t.Fatal("even replica count accepted")
	}
}

func TestSharedTRecordMode(t *testing.T) {
	// The TAPIR-like baseline must be just as correct, only slower.
	c := newTestDB(t, Config{SharedTRecord: true, Cores: 2})
	cl := newDBClient(t, c)
	c.Load("ctr", []byte("0"))
	for i := 0; i < 10; i++ {
		err := cl.Run(context.Background(), func(txn *Txn) error {
			v, _ := txn.Read("ctr")
			n, _ := strconv.Atoi(string(v))
			txn.Write("ctr", []byte(strconv.Itoa(n+1)))
			return nil
		})
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	v, _ := cl.GetStrong("ctr")
	if string(v) != "10" {
		t.Fatalf("ctr = %q", v)
	}
}

func TestDisableFastPath(t *testing.T) {
	c := newTestDB(t, Config{DisableFastPath: true})
	cl := newDBClient(t, c)
	if err := cl.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, _ := cl.GetStrong("k")
	if string(v) != "v" {
		t.Fatalf("got %q", v)
	}
}

func TestMultiPartitionTxn(t *testing.T) {
	c := newTestDB(t, Config{Shards: 3})
	cl := newDBClient(t, c)

	// Write a batch of keys that necessarily spans partitions.
	txn := cl.Begin()
	for i := 0; i < 12; i++ {
		txn.Write(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	ok, err := txn.Commit()
	if err != nil || !ok {
		t.Fatalf("multi-partition commit: %v, %v", ok, err)
	}
	for i := 0; i < 12; i++ {
		v, err := cl.GetStrong(fmt.Sprintf("key-%d", i))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key-%d = %q, %v", i, v, err)
		}
	}
}

func TestMultiPartitionAtomicity(t *testing.T) {
	// Transfer between keys in different partitions: the sum is invariant.
	c := newTestDB(t, Config{Shards: 2, Cores: 2})
	c.Load("acct-a", []byte("100"))
	c.Load("acct-b", []byte("100"))

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		cl := newDBClient(t, c)
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				cl.Run(context.Background(), func(txn *Txn) error {
					av, err := txn.Read("acct-a")
					if err != nil {
						return err
					}
					bv, err := txn.Read("acct-b")
					if err != nil {
						return err
					}
					a, _ := strconv.Atoi(string(av))
					b, _ := strconv.Atoi(string(bv))
					txn.Write("acct-a", []byte(strconv.Itoa(a-1)))
					txn.Write("acct-b", []byte(strconv.Itoa(b+1)))
					return nil
				})
			}
		}(cl)
	}
	wg.Wait()

	// Audit inside a validated transaction. Note the assertion happens only
	// after the transaction commits: optimistic reads taken before
	// validation may legitimately observe a non-serializable snapshot,
	// which validation then rejects and retries.
	cl := newDBClient(t, c)
	var a, b int
	err := cl.Run(context.Background(), func(txn *Txn) error {
		av, err := txn.Read("acct-a")
		if err != nil {
			return err
		}
		bv, err := txn.Read("acct-b")
		if err != nil {
			return err
		}
		a, _ = strconv.Atoi(string(av))
		b, _ = strconv.Atoi(string(bv))
		return nil
	})
	if err != nil {
		t.Fatalf("check txn: %v", err)
	}
	if a+b != 200 {
		t.Fatalf("committed audit saw sum = %d, want 200 (a=%d b=%d)", a+b, a, b)
	}
}

func TestClockSkewDoesNotBreakCorrectness(t *testing.T) {
	// Meerkat requires synchronized clocks only for performance. With
	// wildly skewed client clocks, counters must still not lose updates.
	c := newTestDB(t, Config{ClockSkew: 500 * time.Millisecond, Cores: 2})
	c.Load("ctr", []byte("0"))
	var committed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		cl := newDBClient(t, c)
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				err := cl.Run(context.Background(), func(txn *Txn) error {
					v, err := txn.Read("ctr")
					if err != nil {
						return err
					}
					n, _ := strconv.Atoi(string(v))
					txn.Write("ctr", []byte(strconv.Itoa(n+1)))
					return nil
				})
				if err == nil {
					mu.Lock()
					committed++
					mu.Unlock()
				}
			}
		}(cl)
	}
	wg.Wait()
	cl := newDBClient(t, c)
	v, _ := cl.GetStrong("ctr")
	n, _ := strconv.Atoi(string(v))
	if int64(n) != committed {
		t.Fatalf("ctr = %d, committed = %d", n, committed)
	}
}
