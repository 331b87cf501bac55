package transport

import "meerkat/internal/obs"

// RegisterObs exposes the summed per-endpoint counters as scrape-time gauges
// on r, so export adds nothing to the send path.
func (n *Inproc) RegisterObs(r *obs.Registry) {
	r.RegisterGauge("net_inproc_sent", func() uint64 { return n.Stats().Sent })
	r.RegisterGauge("net_inproc_delivered", func() uint64 { return n.Stats().Delivered })
	r.RegisterGauge("net_inproc_dropped", func() uint64 { return n.Stats().Dropped })
}

// RegisterObs exposes the summed per-endpoint socket counters as scrape-time
// gauges on r.
func (n *UDP) RegisterObs(r *obs.Registry) {
	r.RegisterGauge("net_udp_sent", func() uint64 { return n.Stats().Sent })
	r.RegisterGauge("net_udp_delivered", func() uint64 { return n.Stats().Delivered })
	r.RegisterGauge("net_udp_dropped", func() uint64 { return n.Stats().Dropped })
	r.RegisterGauge("net_udp_send_syscalls", func() uint64 { return n.Stats().SendCalls })
	r.RegisterGauge("net_udp_recv_syscalls", func() uint64 { return n.Stats().RecvCalls })
}
