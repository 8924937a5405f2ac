package main

import (
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// percentile returns the nearest-rank p-th percentile of xs in
// milliseconds.
func percentile(xs []time.Duration, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p/100*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return msOf(s[i])
}

// sliceRate splits the window [0, window) into slices equal parts by
// completion time and returns the median over the parts of weight per
// second. A median of parts shrugs off a stall that a whole-window rate
// would average in.
func sliceRate(done []time.Duration, weight []float64, window time.Duration, slices int) float64 {
	sums := make([]float64, slices)
	for i, d := range done {
		k := int(int64(d) * int64(slices) / int64(window))
		if k >= slices {
			k = slices - 1
		}
		sums[k] += weight[i]
	}
	per := window.Seconds() / float64(slices)
	for k := range sums {
		sums[k] /= per
	}
	return median(sums)
}
