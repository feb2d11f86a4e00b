package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a tail figure resting on fewer is one outlier.
const minBeyond = 10

// rankIndex is the 0-based nearest-rank index of percentile p (0 < p < 1)
// in n sorted samples.
func rankIndex(n int, p float64) int {
	k := int(math.Ceil(p*float64(n))) - 1
	return min(max(k, 0), n-1)
}

// supported reports whether n samples leave at least minBeyond samples
// beyond percentile p.
func supported(n int, p float64) bool {
	return n > 0 && n-1-rankIndex(n, p) >= minBeyond
}

// tailPercentile returns the highest of the usual tail percentiles that n
// samples support, or false when not even the median is supported.
func tailPercentile(n int) (float64, bool) {
	for _, p := range []float64{0.999, 0.99, 0.9, 0.5} {
		if supported(n, p) {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of xs (not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// median returns the middle value of xs, averaging the two middle values
// of an even-length sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// summary is a latency sample reduced the way the benchmark reports it: the
// median, the highest supported tail percentile, and the sample count.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	TailP  float64 `json:"tail_percentile,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
	P99    float64 `json:"p99"`
	P99Gap bool    `json:"p99_unsupported,omitempty"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.P50 = median(xs)
	s.P90 = percentile(xs, 0.9)
	s.P99 = percentile(xs, 0.99)
	s.P99Gap = !supported(len(xs), 0.99)
	if p, ok := tailPercentile(len(xs)); ok {
		s.TailP, s.Tail = p, percentile(xs, p)
	}
	return s
}
