package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles a run may report as its tail, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75}

// tailPercentile returns the highest percentile of tailLadder that leaves
// at least ten samples beyond it, and false when there are fewer than 40
// samples: below that, only the median is reported, because any higher
// percentile would be no tail at all.
func tailPercentile(n int) (float64, bool) {
	if n < 40 {
		return 0, false
	}
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// latencySummary is what a run reports about one latency sample set.
type latencySummary struct {
	N       int
	P50     float64
	TailP   float64 // 0 when the sample is too small for a tail
	TailV   float64
	HasTail bool
}

func summarize(vals []float64) latencySummary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), P50: percentile(s, 50)}
	if p, ok := tailPercentile(len(s)); ok {
		out.TailP, out.TailV, out.HasTail = p, percentile(s, p), true
	}
	return out
}

// quartiles returns the three cut points of values the way Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so the spreads printed here match the ones the
// bounds are checked against.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle value (the mean of the two middle values for
// an even count).
func median(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// String renders the summary with its sample count, e.g.
// "p50 0.640 ms, p99.9 12.1 ms over 56964 samples".
func (l latencySummary) String() string {
	out := fmt.Sprintf("p50 %.3f ms", l.P50)
	if l.HasTail {
		out += fmt.Sprintf(", p%g %.3f ms", l.TailP, l.TailV)
	}
	return out + fmt.Sprintf(" over %d samples", l.N)
}
