package main

import (
	"sort"
	"time"

	"repro/internal/obs"
)

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, the way the benchmark's spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			out[i-1] = s[0] - float64(4-delta)*(s[1]-s[0])/4
		case j >= n:
			out[i-1] = s[n-1] + float64(delta)*(s[n-1]-s[n-2])/4
		default:
			out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
		}
	}
	return out[0], out[1], out[2]
}

// histQuantile interpolates the q-quantile of fixed-bucket histograms
// merged bucket by bucket (they must share bounds), in the histogram's
// unit; 0 when empty.
func histQuantile(hs []obs.FixedHistSnapshot, q float64) float64 {
	if len(hs) == 0 {
		return 0
	}
	bounds := hs[0].Bounds
	counts := make([]int64, len(hs[0].Counts))
	var total int64
	for _, h := range hs {
		for i := range counts {
			if i < len(h.Counts) {
				counts[i] += h.Counts[i]
				total += h.Counts[i]
			}
		}
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if float64(cum+c) >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i >= len(bounds) {
				return lo
			}
			return lo + (bounds[i]-lo)*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}
