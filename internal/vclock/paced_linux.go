//go:build linux

package vclock

// The two µs-resolution sleepers, standard library only (see Paced for
// which role gets which, and why).
//
// The fabric's: select(2) with a timeval timeout on the read end of a
// wake pipe. The kernel arms an hrtimer for it, but rounds the expiry up
// by the calling thread's timer slack (50 µs by default), so the pacer
// locks its goroutine to a thread and lowers that thread's slack to the
// minimum while it has deadlines to keep.
//
// The process heap's: a CLOCK_MONOTONIC timerfd, read through the Go
// netpoller. The sleeping pacer is a goroutine parked in IO wait; the
// scheduler's own epoll_wait returns when the timer expires.

import (
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// prSetTimerslack is PR_SET_TIMERSLACK from <linux/prctl.h>; package
// syscall carries SYS_PRCTL but none of its options.
const prSetTimerslack = 29

type selectSleeper struct {
	r, w   int           // wake pipe, both ends non-blocking
	wake   chan struct{} // ends a sleep programmed without a deadline
	wait   time.Duration // as programmed; the pacer's, written under schedule.mu
	locked bool          // pacer goroutine only: thread locked, slack lowered
}

// newFabricSleeper falls back to the runtime timer when the process is
// out of descriptors or the pipe lands beyond what an FdSet can name.
func newFabricSleeper() sleeper {
	var p [2]int
	if err := syscall.Pipe2(p[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		return newTimerSleeper()
	}
	if p[0] >= int(unsafe.Sizeof(syscall.FdSet{}))*8 {
		syscall.Close(p[0])
		syscall.Close(p[1])
		return newTimerSleeper()
	}
	return &selectSleeper{r: p[0], w: p[1], wake: make(chan struct{}, 1)}
}

func (s *selectSleeper) program(wait time.Duration) { s.wait = wait }

func (s *selectSleeper) sleep() {
	if s.wait < 0 {
		// Nothing to keep: block on a Go primitive, not in the kernel, so
		// that an idle clock pins no thread.
		s.release()
		<-s.wake
		return
	}
	if !s.locked {
		runtime.LockOSThread()
		timerslack(1)
		s.locked = true
	}
	var rd syscall.FdSet
	word := int(unsafe.Sizeof(rd.Bits[0])) * 8
	rd.Bits[s.r/word] |= 1 << (uint(s.r) % uint(word))
	tv := syscall.NsecToTimeval(int64(s.wait) + 999) // round up: waking a fraction of a µs early would spin
	// Any error (EINTR) is an early return, which the pacer handles as
	// it handles an advance: it reads the clock and the heap again.
	if n, _ := syscall.Select(s.r+1, &rd, nil, nil, &tv); n > 0 {
		var buf [8]byte
		syscall.Read(s.r, buf[:]) // drain; at most one byte per sleep is written
	}
}

// advance ends the sleep: the pipe cannot be full, one byte per sleep
// is written, drained by that sleep or the next.
func (s *selectSleeper) advance(time.Duration) bool {
	if s.wait < 0 {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	} else {
		syscall.Write(s.w, []byte{0})
	}
	return false
}

func (s *selectSleeper) close() {
	s.release()
	syscall.Close(s.r)
	syscall.Close(s.w)
}

// release restores the thread's default slack before handing it back to
// the runtime.
func (s *selectSleeper) release() {
	if s.locked {
		timerslack(0)
		runtime.UnlockOSThread()
		s.locked = false
	}
}

// timerslack sets the calling thread's timer slack in nanoseconds; 0
// restores its default. Failure leaves the default slack, which only
// costs precision.
func timerslack(ns uintptr) {
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, ns, 0)
}

// clockMonotonic is CLOCK_MONOTONIC from <linux/time.h>, the clock the
// runtime reads for time.Since.
const clockMonotonic = 1

// itimerspec is struct itimerspec from <linux/time.h>.
type itimerspec struct {
	interval, value syscall.Timespec
}

type timerfdSleeper struct {
	fd       int      // the timerfd, non-blocking
	f        *os.File // fd, registered with the netpoller
	buf      [8]byte  // expiration count, read and ignored
	settimes int      // timerfd_settime calls, for tests; guarded by schedule.mu
}

// newHeapSleeper falls back to the runtime timer when the process is out
// of descriptors.
func newHeapSleeper() sleeper {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerSleeper()
	}
	// A non-blocking descriptor makes a File the netpoller waits on.
	return &timerfdSleeper{fd: int(fd), f: os.NewFile(fd, "vclock-timerfd")}
}

// program arms the timer for the next sleep. A sleep ends with the timer
// expired, so without a deadline it is left alone: at worst an advance
// that came as the last sleep ended left it armed, which costs one empty
// wake-up.
func (s *timerfdSleeper) program(wait time.Duration) {
	if wait >= 0 {
		s.set(wait)
	}
}

// sleep parks the goroutine in the netpoller until the timer expires. A
// read error means the file is closed, which happens only after the
// pacer has exited.
func (s *timerfdSleeper) sleep() { s.f.Read(s.buf[:]) }

// advance reprograms the timer: the sleep it ends earlier goes on.
func (s *timerfdSleeper) advance(wait time.Duration) bool {
	s.set(wait)
	return true
}

func (s *timerfdSleeper) close() { s.f.Close() }

// set arms the timer to expire once, wait from now; a zero expiry
// would disarm it, so the shortest is a nanosecond. Setting it discards
// an expiration not yet read. Failure cannot happen with a valid
// descriptor and value.
func (s *timerfdSleeper) set(wait time.Duration) {
	s.settimes++
	spec := itimerspec{value: syscall.NsecToTimespec(int64(max(wait, 1)))}
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}
