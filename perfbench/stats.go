package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of durations measured by the benchmark itself.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile (0 when empty).
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// beyond is how many samples lie above the q-quantile's rank — the guide's
// "at least ten samples beyond the percentile" test.
func (s samples) beyond(q float64) int {
	return len(s) - int(math.Ceil(q*float64(len(s))))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median of plain numbers (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
