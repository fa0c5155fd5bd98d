//go:build !linux

package main

func resetPeakRSS() {}

func peakRSSKB() (int64, bool) { return 0, false }
