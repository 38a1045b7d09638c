package main

import "time"

// The host reference is the benchmark's yardstick for how fast the shared
// host runs at the moment: a fixed computation that belongs to the
// benchmark, never to the program, timed between requests throughout
// every timed phase. On a 2-vCPU host shared with other tenants the same
// round of core-mix simulations took from 3.3 s to 7.9 s within ten
// minutes, and 2.4 s an hour later, in phases of tens of seconds to
// minutes, CPU time per simulation moving with wall time, so no statistic
// over one run's requests alone repeats from run to run. This walk slows
// with the host: over six minutes in which the rounds' time varied by
// 9.2% (coefficient of variation), their ratio to the walk's time varied
// by 6.2%. It does not follow the host's switch between its fast and slow
// states in full: the simulations slowed 1.79 times, the walk 1.32 times,
// and none of the other walks and loops tried followed such a switch in
// full either. The end-to-end wall and CPU
// figures are reported at the reference host speed (see
// phase.hostFactor).
//
// The reference must never change: its time is the scale of every
// end-to-end wall and CPU figure.
const (
	// refLines is how many cache lines the walk goes round, scattered
	// over a 4 MiB arena of refArenaLines: past a core's first-level data
	// cache and TLB and inside its second-level ones, so every step waits
	// on the second level, whose speed the host's tenants share, and not
	// on the memory traffic of the program. The lines are scattered, not
	// evenly spaced, so that they spread over every cache set.
	refLines      = 1 << 11
	refArenaLines = 1 << 16
	// refLineWords is how many chain entries fill a 64-byte line; the
	// walk uses the first of each of its lines.
	refLineWords = 64 / 4
	// refSteps is how far the timed walk goes.
	refSteps = 100_000
	// refEvery is how often a timed phase times the reference, checked
	// after each request.
	refEvery = 100 * time.Millisecond
	// refNominal is the reference's time on the quiet host, measured where
	// the benchmark was written. It only sets the scale.
	refNominal = 800 * time.Microsecond
)

// refChain is the arena: the first entry of each of the walk's lines
// holds the index of the next line's first entry, and they form one cycle.
var refChain = refCycle(refLines, refArenaLines)

// refCycle returns an arena of arenaLines lines of which n, the first and
// n-1 chosen at random, form a single cycle in a random order (Sattolo's
// algorithm). A
// fixed xorshift generator makes both choices, so the chain is the same
// in every run and on every host.
func refCycle(n, arenaLines int) []uint32 {
	x := uint64(0x9e3779b97f4a7c15)
	rand := func(k int) int { // uniform enough in [0, k)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(k))
	}
	slots := make([]uint32, arenaLines)
	for i := range slots {
		slots[i] = uint32(i * refLineWords)
	}
	for i := 1; i < n; i++ { // line 0 and n-1 lines chosen at random
		j := i + rand(arenaLines-i)
		slots[i], slots[j] = slots[j], slots[i]
	}
	next := make([]int, n)
	for i := range next {
		next[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rand(i) // j < i: Sattolo, one cycle
		next[i], next[j] = next[j], next[i]
	}
	chain := make([]uint32, arenaLines*refLineWords)
	for i, j := range next {
		chain[slots[i]] = slots[j]
	}
	return chain
}

// refSink keeps the walks' results alive.
var refSink uint64

// refWalk follows the chain steps times from the arena's first line, with a branch on each line's place that no predictor can learn.
func refWalk(steps int) {
	i, s := uint32(0), uint64(0)
	for k := 0; k < steps; k++ {
		i = refChain[i]
		if i/refLineWords&3 == 1 {
			s += uint64(i)
		} else {
			s ^= uint64(i) << 3
		}
	}
	refSink += s
}

// hostRef walks the chain once round untimed, which brings it back into
// the cache the program's last request used, and then times a walk of
// refSteps, so that the time measures the host and not how much memory
// the program touched.
func hostRef() time.Duration {
	refWalk(refLines)
	start := time.Now()
	refWalk(refSteps)
	return time.Since(start)
}
