package main

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"
)

// hostNow is the benchmark's only wall-clock source.
//
//sim:wallclock host timings are the benchmark's measurements; no simulated result or results document reads them
func hostNow() time.Time { return time.Now() }

// since returns the host seconds elapsed from t0.
func since(t0 time.Time) float64 { return hostNow().Sub(t0).Seconds() }

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, or
// 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}

// peakRSSMB returns the process's high-water resident set size in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}

// beyond returns how many samples of xs lie past the nearest-rank
// p-quantile that percentile(xs, p) picks.
func beyond(xs []float64, p float64) int {
	if len(xs) == 0 {
		return 0
	}
	return len(xs) - max(int(math.Ceil(p*float64(len(xs)))), 1)
}
