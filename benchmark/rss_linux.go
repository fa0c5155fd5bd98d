package main

import (
	"os"
	"strconv"
	"strings"
)

// resetPeakRSS restarts the kernel's high-water mark of the process's
// resident set, so that a run in a process that has already run another
// workload reports its own peak. Where the kernel refuses, the peak stays
// the process's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSKB reads the high-water mark; ok is false where /proc has none.
func peakRSSKB() (kb int64, ok bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, found := strings.CutPrefix(line, "VmHWM:"); found {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}
