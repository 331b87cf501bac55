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
	net := transport.NewUDP("127.0.0.1", 29000, 4)
	defer net.Close()
	// Client id c binds slot c, so ids up to defaultClientIDs need that many
	// slots plus the unused slot 0.
	if err := net.ValidatePortMap(1, 3, defaultClientIDs+1); err != nil {
		t.Fatalf("highest default id does not map to a port: %v", err)
	}
}

// TestExplicitClientIDPastPortBudget: an -id whose slot overflows the port
// range is rejected at the flags with the largest usable id in the message,
// and that id does bind-check clean.
func TestExplicitClientIDPastPortBudget(t *testing.T) {
	tp := topo.Topology{Partitions: 1, Replicas: 3, Cores: 4}
	for _, c := range []struct{ port, cores, largest int }{
		{29000, 4, 8877}, // the default flags
		{29000, 8, 4310},
		{60000, 4, 1127},
	} {
		net := transport.NewUDP("127.0.0.1", c.port, c.cores)
		if err := checkClientID(net, tp, c.cores, uint64(c.largest)); err != nil {
			t.Errorf("port %d cores %d: id %d rejected: %v", c.port, c.cores, c.largest, err)
		}
		if _, err := net.Listen(tp.ClientAddr(uint64(c.largest)), nil); errors.Is(err, transport.ErrPortRange) {
			t.Errorf("port %d cores %d: id %d passes the check but does not map to a port: %v", c.port, c.cores, c.largest, err)
		}
		for _, id := range []uint64{uint64(c.largest) + 1, 1 << 20, math.MaxUint64} {
			err := checkClientID(net, tp, c.cores, id)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("largest usable id is %d", c.largest)) {
				t.Errorf("port %d cores %d: id %d: got %v, want a rejection naming %d", c.port, c.cores, id, err, c.largest)
			}
		}
		net.Close()
	}
	if err := checkClientID(transport.NewUDP("127.0.0.1", 65000, 4), tp, 4, 1); err == nil {
		t.Error("a -port with no room for any client was accepted")
	}
}
