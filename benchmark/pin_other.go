//go:build !linux

package main

import "runtime"

// confine can only size GOMAXPROCS where the benchmark cannot set its
// affinity; expect the wider spreads README.md describes.
func confine(one bool) error {
	if one {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	return nil
}
