package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask with room for 8192 CPUs.
type cpuMask [128]uint64

// allowedCPUs is the affinity the process started with.
var allowedCPUs, allowedLen = func() (m cpuMask, n uintptr) {
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, 0
	}
	return m, n
}()

// confine restricts the whole process to the first CPU it is allowed
// on and GOMAXPROCS to 1 (one true), or gives it back every CPU it
// started with. README.md has the measurements behind pinning the
// CPU-saturated workloads: spread over the sandbox's two shared vCPUs
// the same binary wanders by a factor of two from one second to the
// next, on one it holds ±3 %.
//
// Affinity is per thread and inherited at thread creation, so every
// existing thread is set, and the pass repeated until it meets no thread
// it has not set already.
func confine(one bool) error {
	if allowedLen == 0 {
		return fmt.Errorf("reading the CPU affinity failed")
	}
	mask, procs := allowedCPUs, 0
	for i := range mask {
		for bit := uint64(1); bit != 0; bit <<= 1 {
			if mask[i]&bit == 0 {
				continue
			}
			if procs++; one && procs > 1 {
				mask[i] &^= bit
			}
		}
	}
	if one {
		procs = 1
	}
	runtime.GOMAXPROCS(procs)
	done := map[int]bool{}
	for pass := 0; pass < 10; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || done[tid] {
				continue
			}
			// A thread that exited since the listing is not an error.
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), allowedLen, uintptr(unsafe.Pointer(&mask)))
			if errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("setting the affinity of thread %d: %v", tid, errno)
			}
			done[tid], fresh = true, true
		}
		if !fresh {
			return nil
		}
	}
	return nil
}
