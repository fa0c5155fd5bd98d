//go:build !linux

package vclock

// newSleeper: no µs-resolution interruptible sleep from the standard
// library alone on this platform; deadlines are kept as well as the
// runtime's timers keep them.
func newSleeper() sleeper { return newTimerSleeper() }
