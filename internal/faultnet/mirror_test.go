package faultnet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"meerkat/internal/transport"
)

// fakeLifecycle records lifecycle calls; RecoverReplica fails failRecover
// times before succeeding.
type fakeLifecycle struct {
	mu          sync.Mutex
	crashes     int
	recovers    int
	failRecover int
}

func (f *fakeLifecycle) ReplicaOf(node uint32) (int, int, bool) { return 0, int(node), node < 3 }

func (f *fakeLifecycle) CrashReplica(p, r int) {
	f.mu.Lock()
	f.crashes++
	f.mu.Unlock()
}

func (f *fakeLifecycle) RecoverReplica(p, r int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recovers++
	if f.recovers <= f.failRecover {
		return errors.New("state transfer failed")
	}
	return nil
}

func TestMirror(t *testing.T) {
	n := Wrap(transport.NewInproc(transport.InprocConfig{}), nil)
	defer n.Close()
	events := n.events // unbuffered without a plan: each send below waits for Mirror to take it
	target := &fakeLifecycle{failRecover: 2}
	fired := make(chan Event, 4)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.Mirror(ctx, target, func(ev Event) { fired <- ev })
	}()

	events <- Event{Op: OpPartition}            // not a lifecycle event
	events <- Event{Op: OpCrash, Node: 1 << 16} // not a replica node
	events <- Event{Op: OpCrash, Node: 2}
	events <- Event{Op: OpRestart, Node: 2}
	for _, want := range []Op{OpCrash, OpRestart} {
		select {
		case ev := <-fired:
			if ev.Op != want || ev.Node != 2 {
				t.Fatalf("fired %+v, want %s of node 2", ev, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never mirrored", want)
		}
	}
	if target.crashes != 1 || target.recovers != 3 {
		t.Fatalf("crashes=%d recovers=%d, want 1 crash and a restart retried to its third call",
			target.crashes, target.recovers)
	}

	// A restart that never succeeds must not outlive ctx.
	target.failRecover = 1 << 30
	events <- Event{Op: OpRestart, Node: 0}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Mirror did not return on ctx cancel")
	}
	if len(fired) != 0 {
		t.Fatalf("failed restart reported as fired: %+v", <-fired)
	}
}
