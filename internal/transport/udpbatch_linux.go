//go:build linux && (amd64 || arm64)

package transport

// Batched-syscall backend for the real-socket transport: sendmmsg and
// recvmmsg move up to sendBatch/recvBatch datagrams per kernel
// crossing (see docs/PERFORMANCE.md's syscall-budget section). What
// goes into a datagram is decided in udpsock.go, on every platform;
// this file only moves datagrams.
//
// The backend is deliberately built on the stdlib only: raw
// SYS_SENDMMSG/SYS_RECVMMSG syscalls through syscall.RawConn, with the
// mmsghdr/iovec arrays laid out once per endpoint and reused for every
// call. RawConn keeps the socket inside the Go netpoller — a would-
// block return re-arms the poller instead of spinning — so batched
// endpoints coexist with deadlines, Close and the runtime's scheduler
// exactly like the portable path.

import (
	"fmt"
	"net"
	"syscall"
	"unsafe"
)

// batchSyscalls reports at build time that this platform compiles the
// sendmmsg/recvmmsg backend in.
const batchSyscalls = true

const (
	// sendBatch bounds one sendmmsg: a Flush of more datagrams issues
	// ceil(n/sendBatch) syscalls.
	sendBatch = 32
	// recvBatch bounds one recvmmsg, and thereby the size of the packet
	// batches handed to RecvFunc (and the executor task that
	// carries them).
	recvBatch = 32
)

// mmsghdr mirrors the kernel's struct mmsghdr. Go rounds the struct
// size up to the alignment of syscall.Msghdr, which matches the C
// layout on every linux GOARCH (8-byte alignment and trailing pad on
// 64-bit, none on 32-bit).
type mmsghdr struct {
	hdr    syscall.Msghdr
	msglen uint32
}

// sockaddrBuf stores one destination as the kernel sees it. The buffer
// is a RawSockaddrInet6 (the larger family) so casting to
// RawSockaddrInet4 is always in-bounds and aligned.
type sockaddrBuf struct {
	sa  syscall.RawSockaddrInet6
	len uint32
}

// batchIO is the per-endpoint syscall state: the sendmmsg arrays, owned
// by the endpoint's flushMu holder, and the recvmmsg arrays, owned by
// its read loop. The send queue itself is the endpoint's.
type batchIO struct {
	rc syscall.RawConn
	v6 bool // socket family: encode destinations as INET6

	// sendmmsg scatter arrays, rebuilt from the flushed queue.
	shdrs  [sendBatch]mmsghdr
	siovs  [sendBatch]syscall.Iovec
	saddrs [sendBatch]sockaddrBuf

	// recvmmsg arrays, laid out once: riovs[i] points at its slot in
	// rbufs. Source addresses are not collected (Name is nil) — the
	// sender's group address travels in the frame, exactly as on the
	// portable path.
	rhdrs [recvBatch]mmsghdr
	riovs [recvBatch]syscall.Iovec
	rbufs [recvBatch][]byte
}

// newBatchIO prepares the syscall state for one bound socket.
func newBatchIO(conn *net.UDPConn, maxPacket int) (*batchIO, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	la, ok := conn.LocalAddr().(*net.UDPAddr)
	if !ok {
		return nil, fmt.Errorf("transport: unexpected local address %T", conn.LocalAddr())
	}
	b := &batchIO{rc: rc, v6: la.IP.To4() == nil}
	// One byte beyond maxPacket, for the same reason as the portable
	// read loop: a full buffer marks an over-limit datagram.
	backing := make([]byte, recvBatch*(maxPacket+1))
	for i := range b.rbufs {
		b.rbufs[i] = backing[i*(maxPacket+1) : (i+1)*(maxPacket+1)]
		b.riovs[i].Base = &b.rbufs[i][0]
		b.riovs[i].Len = uint64(len(b.rbufs[i]))
		b.rhdrs[i].hdr.Iov = &b.riovs[i]
		b.rhdrs[i].hdr.Iovlen = 1
	}
	return b, nil
}

// encodeAddr writes dst as a raw sockaddr of the socket's own family
// (a v4 destination on a v6 socket becomes v4-mapped). It reports false
// for a family the socket cannot reach.
func (b *batchIO) encodeAddr(dst *net.UDPAddr, out *sockaddrBuf) bool {
	if !b.v6 {
		ip4 := dst.IP.To4()
		if ip4 == nil {
			return false
		}
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&out.sa))
		*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(dst.Port>>8), byte(dst.Port)
		copy(sa.Addr[:], ip4)
		out.len = syscall.SizeofSockaddrInet4
		return true
	}
	ip6 := dst.IP.To16()
	if ip6 == nil {
		return false
	}
	out.sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
	p := (*[2]byte)(unsafe.Pointer(&out.sa.Port))
	p[0], p[1] = byte(dst.Port>>8), byte(dst.Port)
	copy(out.sa.Addr[:], ip6)
	out.len = syscall.SizeofSockaddrInet6
	return true
}

// send writes a flushed queue in sendmmsg batches, datagrams in queue
// order. A partial send continues from where the kernel stopped; a hard
// errno drops the datagram at the front of the batch (its payloads
// counted as SendErrs, i.e. loss) and continues, so send always
// terminates. closed is re-checked before each batch, so a mid-flush
// Close discards the remainder promptly.
func (b *batchIO) send(e *udpEndpoint, q []datagram) {
	t := e.tr
	for len(q) > 0 && !e.closed.Load() {
		n := 0
		for ; n < len(q) && n < sendBatch; n++ {
			d := &q[n]
			if !b.encodeAddr(d.dst, &b.saddrs[n]) {
				break
			}
			b.siovs[n].Base = &d.buf[0]
			b.siovs[n].Len = uint64(len(d.buf))
			h := &b.shdrs[n].hdr
			h.Name = (*byte)(unsafe.Pointer(&b.saddrs[n].sa))
			h.Namelen = b.saddrs[n].len
			h.Iov = &b.siovs[n]
			h.Iovlen = 1
		}
		if n == 0 {
			// An address family the raw socket cannot encode (e.g. a v6
			// destination on a v4 socket): the stdlib path handles it.
			e.write(&q[0])
			q = q[1:]
			continue
		}
		sent, errno, err := b.sendmmsg(n)
		if err != nil {
			// Socket closed under us: the rest is discarded as loss.
			for i := range q {
				e.lost(&q[i])
			}
			return
		}
		t.sendCalls.Add(1)
		batchSendsCounter.Add(1)
		for i := 0; i < sent; i++ {
			e.sent(&q[i])
		}
		q = q[sent:]
		if errno != 0 || sent == 0 {
			// A hard errno is attributable to the first undelivered
			// datagram (sendmmsg sends in order and stops at the first
			// failure): drop it and move on, exactly as the portable
			// path drops a failed WriteToUDP. The sent==0-without-errno
			// guard keeps the loop terminating no matter what the
			// kernel reports.
			if errno != 0 {
				t.logf("transport: batch send from %d: %v", e.addr, errno)
			}
			e.lost(&q[0])
			q = q[1:]
		}
	}
}

// sendmmsg issues one SYS_SENDMMSG for the first n prepared headers,
// waiting for writability through the netpoller. err is non-nil only
// when the RawConn itself is dead (socket closed). EINTR is retried in
// place — raw syscalls do not get the internal/poll retry the stdlib
// write path has, and sendmmsg returns EINTR only when nothing was
// sent, so the retry never duplicates a datagram.
func (b *batchIO) sendmmsg(n int) (sent int, errno syscall.Errno, err error) {
	err = b.rc.Write(func(fd uintptr) bool {
		for {
			r, _, e := syscall.Syscall6(sysSENDMMSG, fd,
				uintptr(unsafe.Pointer(&b.shdrs[0])), uintptr(n),
				syscall.MSG_DONTWAIT, 0, 0)
			if e == syscall.EINTR {
				continue
			}
			if e == syscall.EAGAIN {
				return false
			}
			sent, errno = int(r), e
			return true
		}
	})
	if err == nil && errno != 0 {
		sent = 0
	}
	return sent, errno, err
}

// recvBatch blocks (via the netpoller) until at least one datagram is
// readable and returns how many the kernel delivered into the prepared
// buffers. EINTR is retried in place (raw syscalls do not get the
// internal/poll retry the stdlib read path has). A non-nil err means
// the RawConn itself is dead (socket closed) and receiving is over; a
// non-zero errno is a per-call kernel failure (e.g. ENOMEM) the caller
// should treat as transient.
func (b *batchIO) recvBatch() (n int, errno syscall.Errno, err error) {
	err = b.rc.Read(func(fd uintptr) bool {
		for {
			r, _, e := syscall.Syscall6(sysRECVMMSG, fd,
				uintptr(unsafe.Pointer(&b.rhdrs[0])), recvBatch,
				syscall.MSG_DONTWAIT, 0, 0)
			if e == syscall.EINTR {
				continue
			}
			if e == syscall.EAGAIN {
				return false
			}
			n, errno = int(r), e
			return true
		}
	})
	if err != nil {
		return 0, 0, err
	}
	if errno != 0 {
		return 0, errno, nil
	}
	return n, 0, nil
}

// recvMsg returns the i-th datagram of the last recvBatch, and whether
// it exceeded the configured packet limit (truncated by the kernel or
// exactly filling the over-limit sentinel byte).
func (b *batchIO) recvMsg(i int) (raw []byte, overLimit bool) {
	ln := int(b.rhdrs[i].msglen)
	if ln >= len(b.rbufs[i]) || b.rhdrs[i].hdr.Flags&syscall.MSG_TRUNC != 0 {
		return nil, true
	}
	return b.rbufs[i][:ln], false
}
