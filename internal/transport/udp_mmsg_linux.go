//go:build linux && (amd64 || arm64)

// sendmmsg/recvmmsg wire for the UDP transport: one syscall moves up to
// sendRing outgoing (or recvRing incoming) datagrams. The stdlib syscall
// package has no mmsg wrappers (and this module deliberately has no
// golang.org/x/sys dependency), so the two syscalls are issued directly
// against the connection's RawConn file descriptor, with the runtime poller
// still providing readiness blocking: the RawConn callbacks return false on
// EAGAIN, which parks the goroutine until the socket is ready.
package transport

import (
	"sync"
	"syscall"
	"unsafe"

	"meerkat/internal/message"
)

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit Linux: a msghdr
// plus the per-message transfer count, padded so the array stride is 64
// bytes.
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
	_   [4]byte
}

// udpPlat is the per-network platform state: a cache of raw IPv4 sockaddrs
// keyed by destination address, so the hot send path never rebuilds one.
// Entries are immutable once stored.
type udpPlat struct {
	raw sync.Map // message.Addr -> *syscall.RawSockaddrInet4
}

// rawAddr returns the cached kernel sockaddr for dst, building it on first
// use. Only called when the wire is in mmsg mode, which requires an IPv4
// host.
func (n *UDP) rawAddr(dst message.Addr) *syscall.RawSockaddrInet4 {
	if v, ok := n.plat.raw.Load(dst); ok {
		return v.(*syscall.RawSockaddrInet4)
	}
	sa := &syscall.RawSockaddrInet4{Family: syscall.AF_INET}
	port := n.Port(dst)
	sa.Port = uint16(port>>8) | uint16(port&0xff)<<8 // htons
	copy(sa.Addr[:], n.ip.To4())
	v, _ := n.plat.raw.LoadOrStore(dst, sa)
	return v.(*syscall.RawSockaddrInet4)
}

// udpWire is the per-endpoint mmsg state. Send fields are guarded by the
// endpoint mutex; receive fields are owned by the read loop goroutine. The
// syscall closures are built once at init so the steady-state batched send
// path allocates nothing.
type udpWire struct {
	ok bool
	rc syscall.RawConn

	// Send side.
	vec      []mmsghdr
	iovs     []syscall.Iovec
	off, lim int
	n        int
	errno    syscall.Errno
	sendFn   func(fd uintptr) bool

	// Receive side.
	rvec   []mmsghdr
	riovs  []syscall.Iovec
	rbufs  [][]byte
	rn     int
	rerrno syscall.Errno
	recvFn func(fd uintptr) bool
}

// wireInit arms the mmsg path. When it declines (a non-IPv4 host, or no raw
// access) the zero-valued wire routes everything through the portable
// fallback.
func (ep *udpEndpoint) wireInit() {
	if ep.net.ip == nil || ep.net.ip.To4() == nil {
		return
	}
	rc, err := ep.conn.SyscallConn()
	if err != nil {
		return
	}
	w := &ep.wire
	w.rc = rc
	w.vec = make([]mmsghdr, sendRing)
	w.iovs = make([]syscall.Iovec, sendRing)
	w.rvec = make([]mmsghdr, recvRing)
	w.riovs = make([]syscall.Iovec, recvRing)
	w.rbufs = make([][]byte, recvRing)
	for i := range w.rbufs {
		w.rbufs[i] = make([]byte, maxDatagram)
		w.riovs[i].Base = &w.rbufs[i][0]
		w.riovs[i].Len = uint64(len(w.rbufs[i]))
		w.rvec[i].Hdr.Iov = &w.riovs[i]
		w.rvec[i].Hdr.Iovlen = 1
	}
	w.sendFn = func(fd uintptr) bool {
		for {
			nn, _, e := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&w.vec[w.off])), uintptr(w.lim-w.off), 0, 0, 0)
			switch e {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // park until the socket is writable
			}
			w.n, w.errno = int(nn), e
			return true
		}
	}
	w.recvFn = func(fd uintptr) bool {
		for {
			nn, _, e := syscall.Syscall6(sysRecvmmsg, fd,
				uintptr(unsafe.Pointer(&w.rvec[0])), uintptr(len(w.rvec)), 0, 0, 0)
			switch e {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // park until the socket is readable
			}
			w.rn, w.rerrno = int(nn), e
			return true
		}
	}
	w.ok = true
}

// writeWire hands slots to the kernel in as few sendmmsg calls as it will
// accept (one, absent short writes). Callers hold ep.mu; the slot buffers
// stay referenced by ep.pend until after this returns, so the iovec
// pointers remain live across the syscall.
func (ep *udpEndpoint) writeWire(slots []sendSlot) error {
	w := &ep.wire
	if !w.ok {
		return ep.writeFallback(slots)
	}
	for i := range slots {
		sa := ep.net.rawAddr(slots[i].dst)
		w.iovs[i].Base = &slots[i].buf[0]
		w.iovs[i].Len = uint64(len(slots[i].buf))
		w.vec[i].Hdr.Name = (*byte)(unsafe.Pointer(sa))
		w.vec[i].Hdr.Namelen = uint32(unsafe.Sizeof(*sa))
		w.vec[i].Hdr.Iov = &w.iovs[i]
		w.vec[i].Hdr.Iovlen = 1
	}
	w.off, w.lim = 0, len(slots)
	var firstErr error
	for w.off < w.lim {
		if err := w.rc.Write(w.sendFn); err != nil {
			// Raw access failed (socket closed): everything unsent drops.
			ep.dropped.Add(uint64(w.lim - w.off))
			return err
		}
		ep.sendCalls.Add(1)
		if w.errno != 0 {
			// sendmmsg faults on the head datagram: drop it, keep going.
			ep.dropped.Add(1)
			w.off++
			if firstErr == nil {
				firstErr = w.errno
			}
			continue
		}
		if w.n <= 0 {
			break // defensive: never spin on a 0-progress success
		}
		ep.sent.Add(uint64(w.n))
		w.off += w.n
	}
	return firstErr
}

// readLoop drains inbound bursts with recvmmsg: one syscall per burst, up to
// recvRing datagrams decoded and delivered per wakeup. The endpoint is
// corked for the duration of the burst, so replies the handlers send
// coalesce into one sendmmsg when the burst ends — this is how replica
// reply emission batches without the replica code knowing.
func (ep *udpEndpoint) readLoop() {
	w := &ep.wire
	if !w.ok {
		ep.readLoopFallback()
		return
	}
	for {
		if err := w.rc.Read(w.recvFn); err != nil {
			return // socket closed
		}
		if w.rerrno != 0 {
			if ep.closed.Load() {
				return
			}
			continue // transient socket error: drop the burst
		}
		ep.recvCalls.Add(1)
		n := w.rn
		ep.cork()
		for i := 0; i < n; i++ {
			ep.deliver(w.rbufs[i][:w.rvec[i].Len])
		}
		ep.uncork()
	}
}
