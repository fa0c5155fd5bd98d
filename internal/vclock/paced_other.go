//go:build !linux

package vclock

// No µs-resolution sleep from the standard library alone on this
// platform: both roles keep deadlines as well as the runtime's timers
// keep them.

func newFabricSleeper() sleeper { return newTimerSleeper() }

func newHeapSleeper() sleeper { return newTimerSleeper() }
