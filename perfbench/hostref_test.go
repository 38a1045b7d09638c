package main

import (
	"testing"
	"time"
)

// The reference walk must go round all its lines before it
// repeats one, or it would stay in a corner of its working set.
func TestRefCycleIsOneCycle(t *testing.T) {
	const n, arena = 1000, 4000
	chain := refCycle(n, arena)
	seen := map[uint32]bool{}
	i := uint32(0)
	for k := 0; k < n; k++ {
		if seen[i] || i%refLineWords != 0 {
			t.Fatalf("step %d reaches entry %d, seen before or not at a line's start", k, i)
		}
		seen[i] = true
		i = chain[i]
	}
	if i != 0 {
		t.Errorf("after %d steps the walk is at entry %d, not back at 0", n, i)
	}
}

// A phase whose reference walks took twice refNominal, in the median, ran
// on a host at half the reference speed: its figures are scaled by 2,
// except a sleeper's wall figures. The walk that something interrupted
// does not count.
func TestPhaseScaled(t *testing.T) {
	ph := phase{
		requests: 4, results: 8,
		wall: 5 * time.Second, refWall: time.Second,
		cpu: 3 * time.Second, refCPU: time.Second,
		latencies: []float64{0.5, 1, 1, 2},
		refs:      []float64{1.5 * refNominal.Seconds(), 2 * refNominal.Seconds(), 9 * refNominal.Seconds()},
	}
	for _, c := range []struct {
		w                               bench
		wallFactor, rate, p50, cpuPerRq float64
	}{
		{&coreMix{}, 2, 4, 0.5, 0.25},
		{&fleetCold{}, 1, 2, 1, 0.25},
	} {
		if got := ph.wallFactor(c.w); got != c.wallFactor {
			t.Errorf("%T: wallFactor = %v, want %v", c.w, got, c.wallFactor)
		}
		rate, p50, cpu := ph.scaled(c.w)
		if rate != c.rate || p50 != c.p50 || cpu != c.cpuPerRq {
			t.Errorf("%T: scaled = %v, %v, %v; want %v, %v, %v", c.w, rate, p50, cpu, c.rate, c.p50, c.cpuPerRq)
		}
	}
}
