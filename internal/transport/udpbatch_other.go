//go:build !linux || !(amd64 || arm64)

package transport

// Portable stub for platforms without sendmmsg/recvmmsg: endpoints
// write each packed datagram with WriteToUDP and read with ReadFromUDP
// (each read delivers one datagram's payloads as a batch), so callers
// never branch on the platform.

import (
	"errors"
	"net"
	"syscall"
)

// batchSyscalls reports at build time that this platform has no batched
// syscall backend.
const batchSyscalls = false

// batchIO is never instantiated off linux; the methods exist so
// udpsock.go compiles unchanged (every call site is nil-guarded).
type batchIO struct{}

func newBatchIO(*net.UDPConn, int) (*batchIO, error) {
	return nil, errors.New("batched syscalls not supported on this platform")
}

func (b *batchIO) send(*udpEndpoint, []datagram) {}
func (b *batchIO) recvBatch() (int, syscall.Errno, error) {
	return 0, 0, errors.New("unsupported")
}
func (b *batchIO) recvMsg(int) ([]byte, bool) { return nil, true }
