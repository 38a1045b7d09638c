package main

import (
	"errors"
	"math"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four equal
// groups, by the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4), so spreads computed here and by external
// tooling over the same figures agree. A single sample is its own
// quartiles; no samples give zeros.
func quartiles(xs []float64) [3]float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// minBeyond is how many samples must lie above a percentile before it is
// reported: a "tail" resting on fewer samples is noise, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs, or false when
// fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n-rank < minBeyond {
		return 0, false
	}
	return slices.Sorted(slices.Values(xs))[rank-1], true
}

// tailPercentiles are the candidate tails, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// highestTail returns the highest candidate percentile that has at least
// minBeyond samples beyond it, with its value; ok is false when even the
// 75th percentile has too few samples (fewer than forty in all).
func highestTail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if v, ok := percentile(xs, p); ok {
			return p, v, true
		}
	}
	return 0, 0, false
}

// fairness recomputes the §4 fairness metric from its definition: thread
// i's relative slowdown is single[i]/smt[i], and fairness is the smallest
// ratio between the slowdowns of any two co-running threads, each ratio
// taken as smaller/larger so it lies in (0, 1]. It is written apart from
// the simulator's metrics.Fairness so that the benchmark checks the
// program against the definition, not against itself.
func fairness(single, smt []float64) (float64, error) {
	if len(single) != len(smt) || len(single) < 2 {
		return 0, errors.New("fairness needs one single-thread and one SMT IPC per thread, for at least two threads")
	}
	slowdown := make([]float64, len(single))
	for i := range single {
		if single[i] <= 0 || smt[i] <= 0 {
			return 0, errors.New("fairness needs positive IPCs")
		}
		slowdown[i] = single[i] / smt[i]
	}
	f := 1.0
	for i := range slowdown {
		for j := i + 1; j < len(slowdown); j++ {
			lo, hi := slowdown[i], slowdown[j]
			if lo > hi {
				lo, hi = hi, lo
			}
			f = min(f, lo/hi)
		}
	}
	return f, nil
}
