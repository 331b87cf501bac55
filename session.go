package meerkat

import "meerkat/internal/coordinator"

// Session pipelines multiple in-flight transactions over one set of client
// sockets. A plain Client is stop-and-wait — one transaction in flight, the
// wire idle between round trips — which on TransportUDP leaves the batched
// sendmmsg/recvmmsg rings nearly empty. A Session opens the same endpoints a
// single client would and multiplexes a bounded window of workers over them;
// each worker behaves exactly like a Client (same API, same retry loop),
// and their concurrent round trips keep the rings full so the per-syscall
// datagram batch grows with the window.
//
// Drive each worker from its own goroutine; a single worker is not safe for
// concurrent use, exactly like a Client.
type Session struct {
	inner   *coordinator.Session
	clients []*Client
}

// Session returns a pipelined client session (default window 4; set it with
// WithPipeline, see coordinator.MaxWindow for the ceiling). The session
// counts as one client id against the UDP port budget regardless of window.
func (db *DB) Session(opts ...ClientOption) (*Session, error) {
	o := resolveOptions(4, opts)
	ccfg, err := db.coordConfig()
	if err != nil {
		return nil, err
	}
	inner, err := coordinator.NewSession(ccfg, o.window)
	if err != nil {
		return nil, err
	}
	s := &Session{inner: inner}
	for i := 0; i < inner.Window(); i++ {
		s.clients = append(s.clients, &Client{coord: inner.Worker(i), id: ccfg.ClientID, roDefault: o.roDefault})
	}
	return s, nil
}

// Window returns the session's pipeline width.
func (s *Session) Window() int { return len(s.clients) }

// Clients returns the session's workers, one per pipeline slot. Each is a
// full Client sharing the session's sockets; Client.Close on a session
// worker is a no-op (the session owns the endpoints).
func (s *Session) Clients() []*Client { return s.clients }

// Stats sums committed/aborted counts across the session's workers.
func (s *Session) Stats() (committed, aborted uint64) {
	for _, cl := range s.clients {
		c, a := cl.Stats()
		committed += c
		aborted += a
	}
	return
}

// Close releases the session's endpoints. Workers must be idle.
func (s *Session) Close() { s.inner.Close() }
