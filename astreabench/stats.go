package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by the nearest-rank rule, sorting
// xs in place; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB; 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// chunks is how many contiguous runs of operations a timed phase is split
// into; the end-to-end figures are medians over them, so a host stall that
// spoils one stretch of the phase moves a figure by one rank, not by its
// size.
const chunks = 10

// chunkMedian splits n time-ordered operations into chunks contiguous runs
// and returns the median over the runs of f(lo, hi) on each run [lo, hi).
func chunkMedian(n int, f func(lo, hi int) float64) float64 {
	k := min(chunks, n)
	if k == 0 {
		return 0
	}
	vals := make([]float64, k)
	for c := range vals {
		vals[c] = f(c*n/k, (c+1)*n/k)
	}
	return quantile(vals, 0.5)
}

// quantileOf is quantile on a copy of xs.
func quantileOf(xs []float64, q float64) float64 {
	return quantile(append([]float64(nil), xs...), q)
}
