package coordinator

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meerkat/internal/message"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

// openSockets counts this process's socket descriptors, or -1 without /proc.
func openSockets() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n
}

// TestSessionIsOneAddress: a session — eight pipelined workers on a
// four-shard topology — is one party, so it binds the client's address and
// nothing beside it, however many partitions it talks to: a second Listen
// there is refused, every other core of its node is free, and over UDP the
// whole pipeline is one socket.
func TestSessionIsOneAddress(t *testing.T) {
	tp := topo.Topology{Partitions: 4, Replicas: 3, Cores: 2}
	nets := map[string]func() transport.Network{
		"inproc": func() transport.Network { return transport.NewInproc(transport.InprocConfig{}) },
		"udp":    func() transport.Network { return transport.NewUDP("127.0.0.1", 25000, tp.EndpointsPerNode()) },
	}
	for name, open := range nets {
		t.Run(name, func(t *testing.T) {
			net := open()
			defer net.Close()
			cfg := scriptedConfig(nil)
			cfg.Topo, cfg.Net, cfg.ClientID = tp, net, 5
			before := openSockets()
			s, err := NewSession(cfg, 8)
			if err != nil {
				if name == "udp" {
					t.Skipf("cannot bind UDP socket: %v", err)
				}
				t.Fatal(err)
			}
			defer s.Close()
			if after := openSockets(); name == "udp" && before >= 0 && after != before+1 {
				t.Errorf("a window-8 session opened %d sockets, want 1", after-before)
			}
			self := tp.ClientAddr(5)
			if _, err := net.Listen(self, func(*message.Message) {}); !errors.Is(err, transport.ErrAddrInUse) {
				t.Errorf("second Listen on the session's address: %v, want ErrAddrInUse", err)
			}
			for core := uint32(1); int(core) < tp.EndpointsPerNode(); core++ {
				ep, err := net.Listen(message.Addr{Node: self.Node, Core: core}, func(*message.Message) {})
				if err != nil {
					t.Errorf("core %d of the client's node is taken: %v", core, err)
					continue
				}
				ep.Close()
			}
		})
	}
}
