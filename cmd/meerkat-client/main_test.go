package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

// TestDefaultClientIDMapsInPortRange: whatever the PID, the default -id must
// land on a bindable UDP port under the default -port (29000) and -cores (4);
// a raw PID did not, past a few thousand.
func TestDefaultClientIDMapsInPortRange(t *testing.T) {
	for _, pid := range []int{0, 1, 1023, 1024, 4_194_304, math.MaxInt32} {
		if id := defaultClientID(pid); id < 1 || id > defaultClientIDs {
			t.Fatalf("defaultClientID(%d) = %d, want within [1, %d]", pid, id, defaultClientIDs)
		}
	}
	tp := topo.Topology{Partitions: 1, Replicas: 3, Cores: 4}
	net := transport.NewUDP("127.0.0.1", 29000, tp.EndpointsPerNode())
	defer net.Close()
	if err := checkClientID(net, tp, defaultClientIDs); err != nil {
		t.Fatalf("highest default id does not map to a port: %v", err)
	}
}

// TestExplicitClientIDPastPortBudget: an -id whose port overflows the port
// range is rejected at the flags with the largest usable id in the message,
// and that id does bind-check clean. The budget depends on -port and -cores
// only: a client is one port whatever -shards says.
func TestExplicitClientIDPastPortBudget(t *testing.T) {
	for _, c := range []struct{ port, cores, shards, largest int }{
		{29000, 4, 1, 7051}, // the default flags: (65535-29000)/5 - 256
		{29000, 4, 64, 7051},
		{29000, 8, 1, 3803},
		{60000, 4, 1, 851},
	} {
		tp := topo.Topology{Partitions: c.shards, Replicas: 3, Cores: c.cores}
		net := transport.NewUDP("127.0.0.1", c.port, tp.EndpointsPerNode())
		if err := checkClientID(net, tp, uint64(c.largest)); err != nil {
			t.Errorf("port %d cores %d: id %d rejected: %v", c.port, c.cores, c.largest, err)
		}
		if _, err := net.Listen(tp.ClientAddr(uint64(c.largest)), nil); errors.Is(err, transport.ErrPortRange) {
			t.Errorf("port %d cores %d: id %d passes the check but does not map to a port: %v", c.port, c.cores, c.largest, err)
		}
		for _, id := range []uint64{uint64(c.largest) + 1, 1 << 20, math.MaxUint64} {
			err := checkClientID(net, tp, id)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("largest usable id is %d", c.largest)) {
				t.Errorf("port %d cores %d: id %d: got %v, want a rejection naming %d", c.port, c.cores, id, err, c.largest)
			}
		}
		net.Close()
	}
	tp := topo.Topology{Partitions: 1, Replicas: 3, Cores: 4}
	if err := checkClientID(transport.NewUDP("127.0.0.1", 65000, tp.EndpointsPerNode()), tp, 1); err == nil {
		t.Error("a -port with no room for any client was accepted")
	}
}
