package transport

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/obs"
)

// TestInprocDropsVisibleInScrape induces queue-full and link-filter drops
// and checks they surface through the obs registry — both in a programmatic
// snapshot and in an actual HTTP /metrics scrape.
func TestInprocDropsVisibleInScrape(t *testing.T) {
	// QueueDepth 1 and Batch 1 with a handler that blocks until released:
	// the second in-flight message fills the queue, the rest overflow.
	release := make(chan struct{})
	n := NewInproc(InprocConfig{QueueDepth: 1, Batch: 1})
	defer n.Close()
	reg := obs.NewRegistry()
	n.RegisterObs(reg)

	sink := message.Addr{Node: 1}
	if _, err := n.Listen(sink, func(*message.Message) { <-release }); err != nil {
		t.Fatal(err)
	}
	src, err := n.Listen(message.Addr{Node: 2}, func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}

	// First send may be consumed by the delivery goroutine (now blocked),
	// second sits in the queue; everything after overflows the ring.
	const sends = 10
	for i := 0; i < sends; i++ {
		if err := src.Send(sink, &message.Message{Type: message.TypeMultiRead}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)

	gauges := map[string]uint64{}
	for _, g := range reg.Snapshot().Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges["net_inproc_sent"] != sends {
		t.Errorf("net_inproc_sent = %d, want %d", gauges["net_inproc_sent"], sends)
	}
	queueDrops := gauges["net_inproc_dropped"]
	if queueDrops < sends-2 {
		t.Errorf("net_inproc_dropped = %d, want >= %d (ring overflow)", queueDrops, sends-2)
	}
	if gauges["net_inproc_sent"] != gauges["net_inproc_delivered"]+gauges["net_inproc_dropped"] {
		t.Errorf("sent (%d) != delivered (%d) + dropped (%d)",
			gauges["net_inproc_sent"], gauges["net_inproc_delivered"], gauges["net_inproc_dropped"])
	}

	// Drops at an unbound destination (a crashed node) must be visible too.
	for i := 0; i < 3; i++ {
		if err := src.Send(message.Addr{Node: 7}, &message.Message{Type: message.TypeMultiRead}); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var droppedLine string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "meerkat_net_inproc_dropped ") {
			droppedLine = line
		}
	}
	if droppedLine == "" {
		t.Fatalf("/metrics scrape missing meerkat_net_inproc_dropped:\n%s", body)
	}
	want := queueDrops + 3
	if droppedLine != "meerkat_net_inproc_dropped "+uitoa(want) {
		t.Errorf("scrape line %q, want value %d", droppedLine, want)
	}
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestUDPStatsVisibleInScrape exercises the UDP transport's per-endpoint
// counters end to end: real datagrams over loopback, summed at scrape time.
func TestUDPStatsVisibleInScrape(t *testing.T) {
	n := NewUDP("127.0.0.1", 38000, 4)
	defer n.Close()
	reg := obs.NewRegistry()
	n.RegisterObs(reg)

	got := make(chan *message.Message, 8)
	if _, err := n.Listen(message.Addr{Node: 1}, func(m *message.Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	src, err := n.Listen(message.Addr{Node: 2}, func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	const sends = 5
	for i := 0; i < sends; i++ {
		if err := src.Send(message.Addr{Node: 1}, &message.Message{Type: message.TypeMultiRead}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sends; i++ {
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of %d datagrams delivered", i, sends)
		}
	}

	gauges := map[string]uint64{}
	for _, g := range reg.Snapshot().Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges["net_udp_sent"] != sends {
		t.Errorf("net_udp_sent = %d, want %d", gauges["net_udp_sent"], sends)
	}
	if gauges["net_udp_delivered"] != sends {
		t.Errorf("net_udp_delivered = %d, want %d", gauges["net_udp_delivered"], sends)
	}
}
