//go:build linux

package vclock

// µs-resolution interruptible sleep for the pacer, standard library
// only: select(2) with a timeval timeout on the read end of a wake
// pipe. The kernel arms an hrtimer for it, but rounds the expiry up by
// the calling thread's timer slack (50 µs by default), so the pacer
// locks its goroutine to a thread and lowers that thread's slack to
// the minimum while it has deadlines to keep.

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// prSetTimerslack is PR_SET_TIMERSLACK from <linux/prctl.h>; package
// syscall carries SYS_PRCTL but none of its options.
const prSetTimerslack = 29

type selectSleeper struct {
	r, w   int  // wake pipe, both ends non-blocking
	locked bool // pacer goroutine only: thread locked, slack lowered
}

// newSleeper falls back to the runtime timer when the process is out of
// descriptors or the pipe lands beyond what an FdSet can name.
func newSleeper() sleeper {
	var p [2]int
	if err := syscall.Pipe2(p[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		return newTimerSleeper()
	}
	if p[0] >= int(unsafe.Sizeof(syscall.FdSet{}))*8 {
		syscall.Close(p[0])
		syscall.Close(p[1])
		return newTimerSleeper()
	}
	return &selectSleeper{r: p[0], w: p[1]}
}

func (s *selectSleeper) sleep(d time.Duration) {
	if !s.locked {
		runtime.LockOSThread()
		timerslack(1)
		s.locked = true
	}
	var rd syscall.FdSet
	word := int(unsafe.Sizeof(rd.Bits[0])) * 8
	rd.Bits[s.r/word] |= 1 << (uint(s.r) % uint(word))
	tv := syscall.NsecToTimeval(int64(d) + 999) // round up: waking a fraction of a µs early would spin
	// Any error (EINTR) is an early return, which the pacer handles as
	// it handles an interrupt: it reads the clock and the heap again.
	if n, _ := syscall.Select(s.r+1, &rd, nil, nil, &tv); n > 0 {
		var buf [8]byte
		syscall.Read(s.r, buf[:]) // drain; at most one byte per sleep is written
	}
}

func (s *selectSleeper) interrupt() {
	// The pipe cannot be full: one byte per sleep, drained by that sleep
	// or the next.
	syscall.Write(s.w, []byte{0})
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

func (s *selectSleeper) close() {
	syscall.Close(s.r)
	syscall.Close(s.w)
}

// timerslack sets the calling thread's timer slack in nanoseconds; 0
// restores its default. Failure leaves the default slack, which only
// costs precision.
func timerslack(ns uintptr) {
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, ns, 0)
}
