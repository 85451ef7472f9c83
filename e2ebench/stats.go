package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of ds by nearest rank (ds is sorted in
// place); NaN when ds is empty.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(ds[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, NaN when b is 0 (an absent metric).
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// latencies collects the latencies of the samples keep selects, successful
// ones only.
func latencies(ss []sample, keep func(*sample) bool) []time.Duration {
	var out []time.Duration
	for i := range ss {
		if ss[i].ok() && keep(&ss[i]) {
			out = append(out, ss[i].lat)
		}
	}
	return out
}
