package main

import (
	"math"
	"testing"

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
