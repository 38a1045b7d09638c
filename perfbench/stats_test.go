package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, [3]float64{2.5, 5, 7.5}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(xs, 95); ok {
		t.Error("p95 of 100 samples has only 5 beyond it and must be refused")
	}
	if _, ok := percentile(xs[:39], 75); ok {
		t.Error("p75 of 39 samples has only 9 beyond it and must be refused")
	}
	if v, ok := percentile(xs[:40], 75); !ok || v != 30 {
		t.Errorf("p75 of 1..40 = %v, %v; want 30, true", v, ok)
	}
	if p, v, ok := highestTail(xs); !ok || p != 90 || v != 90 {
		t.Errorf("highestTail(1..100) = p%v %v %v; want p90 90 true", p, v, ok)
	}
	if _, _, ok := highestTail(xs[:20]); ok {
		t.Error("20 samples support no tail")
	}
}

// Hand-worked §4 cases: slowdown_i = single_i / smt_i, fairness = the
// smallest smaller/larger ratio over thread pairs.
func TestFairnessHandWorked(t *testing.T) {
	for _, c := range []struct {
		name        string
		single, smt []float64
		want        float64
	}{
		// Slowdowns 2 and 2: equal, perfectly fair.
		{"equal slowdowns", []float64{2, 1}, []float64{1, 0.5}, 1},
		// Slowdowns 2 and 4: 2/4.
		{"one thread hurt twice as much", []float64{2, 1}, []float64{1, 0.25}, 0.5},
		// Order must not matter: slowdowns 4 and 2.
		{"mirrored", []float64{1, 2}, []float64{0.25, 1}, 0.5},
		// Slowdowns 1.25 and 2.5 (1/0.8, 1.5/0.6): 0.5.
		{"fractional", []float64{1, 1.5}, []float64{0.8, 0.6}, 0.5},
		// Slowdowns 2, 4, 1: the worst pair is 1 vs 4.
		{"three threads", []float64{1, 1, 1}, []float64{0.5, 0.25, 1}, 0.25},
	} {
		got, err := fairness(c.single, c.smt)
		if err != nil || math.Abs(got-c.want) > 1e-15 {
			t.Errorf("%s: fairness = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	for _, c := range []struct{ single, smt []float64 }{
		{[]float64{1}, []float64{1}},
		{[]float64{1, 1}, []float64{1}},
		{[]float64{1, 1}, []float64{1, 0}},
		{[]float64{0, 1}, []float64{1, 1}},
	} {
		if _, err := fairness(c.single, c.smt); err == nil {
			t.Errorf("fairness(%v, %v) accepted invalid input", c.single, c.smt)
		}
	}
}
