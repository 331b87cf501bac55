package bench

import (
	"io"
	"testing"
	"time"
)

// TestFaultTimelineSmoke runs a miniature kill-one-replica timeline and
// checks the coordination shift the experiment exists to show: slow-path
// commits appear while the replica is down, and the fast path is committing
// again in the recovered tail.
func TestFaultTimelineSmoke(t *testing.T) {
	pts, err := faultTimeline(io.Discard, timelineSize{
		Clients:  4,
		Keys:     256,
		Seed:     3,
		Interval: 100 * time.Millisecond,
		CrashAt:  4000, RestartAt: 8000,
		Tail: 2,
	})
	if err != nil {
		t.Fatalf("faultTimeline: %v", err)
	}
	if len(pts) < 3 {
		t.Fatalf("only %d samples", len(pts))
	}
	var slow, fastTail uint64
	for _, p := range pts {
		slow += p.Path.SlowCommits
	}
	for _, p := range pts[len(pts)-2:] {
		fastTail += p.Path.FastCommits
	}
	if slow == 0 {
		t.Error("no slow-path commits during the crash window")
	}
	if fastTail == 0 {
		t.Error("no fast-path commits after recovery")
	}
}
