package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		tail bool
	}{
		{0, 0, false},
		{39, 0, false},  // below 40 samples only the median is reported
		{40, 75, true},  // 10 samples beyond p75
		{99, 75, true},  // 9.9 samples beyond p90 is fewer than 10
		{100, 90, true}, // exactly 10 beyond p90
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
		{99999, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != c.tail || p != c.p {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.tail)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4), the figures bounds are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
		// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
		{[]float64{3, 1}, 0.5, 2, 3.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
