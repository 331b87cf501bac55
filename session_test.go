package meerkat

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"
)

// driveSession runs every session worker concurrently, each incrementing one
// shared counter key `perWorker` times through the full retry loop, then
// checks the counter's final value. With all workers demultiplexed over one
// socket set, a routing bug (a reply delivered to the wrong worker) shows up
// as a lost or doubled increment, or a worker stuck on a foreign reply.
func driveSession(t *testing.T, c *DB, s *Session, perWorker int) {
	t.Helper()
	c.Load("counter", []byte("0"))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, s.Window())
	for i, cl := range s.Clients() {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				err := cl.Run(ctx, func(txn *Txn) error {
					cur, err := txn.Read("counter")
					if err != nil {
						return err
					}
					n, _ := strconv.Atoi(string(cur))
					txn.Write("counter", []byte(strconv.Itoa(n+1)))
					return nil
				})
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	reader, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	val, err := reader.GetStrong("counter")
	if err != nil {
		t.Fatal(err)
	}
	want := s.Window() * perWorker
	if got, _ := strconv.Atoi(string(val)); got != want {
		t.Fatalf("counter = %d after %d workers x %d increments, want %d", got, s.Window(), perWorker, want)
	}
	committed, _ := s.Stats()
	if committed < uint64(want) {
		t.Fatalf("session stats report %d commits, want >= %d", committed, want)
	}
}

func TestSessionPipelinedIncrements(t *testing.T) {
	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Session(WithPipeline(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Window() != 4 || len(s.Clients()) != 4 {
		t.Fatalf("window = %d, clients = %d, want 4", s.Window(), len(s.Clients()))
	}
	driveSession(t, c, s, 25)
}

func TestSessionPipelinedIncrementsUDP(t *testing.T) {
	c, err := Open(Config{Transport: TransportUDP, UDPBasePort: 23000})
	if err != nil {
		t.Skipf("cannot start UDP cluster: %v", err)
	}
	defer c.Close()
	s, err := c.Session(WithPipeline(4))
	if err != nil {
		t.Skipf("cannot bind session sockets: %v", err)
	}
	defer s.Close()
	driveSession(t, c, s, 10)
}

func TestSessionWindowClamp(t *testing.T) {
	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Zero and negative clamp up to a one-worker session.
	s, err := c.Session(WithPipeline(0))
	if err != nil {
		t.Fatal(err)
	}
	if s.Window() != 1 {
		t.Fatalf("window = %d, want 1", s.Window())
	}
	s.Close()
	// Absurd windows are rejected, not clamped down silently.
	if _, err := c.Session(WithPipeline(1 << 20)); err == nil {
		t.Fatal("oversized window accepted")
	}
}

func TestConfigUDPPortMapValidation(t *testing.T) {
	// 65 partitions x 3 replicas pushes replica node ids into the
	// recovery-coordinator slot range.
	cfg := Config{Transport: TransportUDP, Shards: 65}
	if err := cfg.Validate(); !errors.Is(err, ErrPortMap) {
		t.Fatalf("Validate = %v, want ErrPortMap", err)
	}
	// A client budget that overflows the 16-bit port space.
	cfg = Config{Transport: TransportUDP, UDPMaxClients: 10000}
	if err := cfg.Validate(); !errors.Is(err, ErrPortMap) {
		t.Fatalf("Validate = %v, want ErrPortMap", err)
	}
	// The defaults fit.
	cfg = Config{Transport: TransportUDP}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default UDP config rejected: %v", err)
	}
}
