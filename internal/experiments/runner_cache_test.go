package experiments

import (
	"sync"
	"sync/atomic"
	"testing"

	"clustersmt/internal/metrics"
	"clustersmt/internal/trace"
	"clustersmt/internal/workload"
)

// TestRunnerSingleflight pins the duplicate-execution fix: N goroutines
// racing on a cold cache key must share one execution, observable both as
// one Verbose completion and as every caller receiving the same *Stats.
func TestRunnerSingleflight(t *testing.T) {
	r := NewRunner(1500)
	var executed int32
	r.Verbose = func(string) { atomic.AddInt32(&executed, 1) }
	w := workload.ByCategory("ispec00")[0]
	spec := iqStudySpec(w, "icount", 32)

	const racers = 16
	results := make([]*metrics.Stats, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := r.Run(spec)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = st
		}(i)
	}
	wg.Wait()
	for i := 1; i < racers; i++ {
		if results[i] != results[0] {
			t.Fatalf("racer %d got a different Stats object: duplicate execution", i)
		}
	}
	if executed != 1 {
		t.Errorf("spec executed %d times under race, want 1", executed)
	}
}

// TestRunnerTraceMemoized asserts trace sharing across specs: the same
// workload thread must hand every run (SMT and single-thread alike) the
// same materialized slice, and different lengths or threads must not
// collide.
func TestRunnerTraceMemoized(t *testing.T) {
	r := NewRunner(1500)
	w := workload.ByCategory("ispec00")[0]

	a := r.traceFor(w, 0)
	b := r.traceFor(w, 0)
	if &a[0] != &b[0] {
		t.Error("same (workload, thread, length) regenerated its trace")
	}
	c := r.traceFor(w, 1)
	if &a[0] == &c[0] {
		t.Error("distinct threads share one trace entry")
	}

	// The SMT run and the single-thread fairness baseline see one slice.
	smt := r.buildPrograms(w, -1)
	solo := r.buildPrograms(w, 1)
	if &smt[1].Trace[0] != &solo[0].Trace[0] {
		t.Error("single-thread run regenerated the SMT thread's trace")
	}

	r2 := NewRunner(2000)
	d := r2.traceFor(w, 0)
	if len(d) != 2000 || len(a) != 1500 {
		t.Fatalf("trace lengths %d/%d, want 2000/1500", len(d), len(a))
	}
}

// TestRunnerTraceKeyedBySeedAndProfile pins the memoization bugfix: a
// hand-built Workload that reuses a pool name with different seeds or a
// different profile must NOT receive the named workload's cached trace.
func TestRunnerTraceKeyedBySeedAndProfile(t *testing.T) {
	r := NewRunner(1500)
	w := workload.ByCategory("ispec00")[0]
	orig := r.traceFor(w, 0)

	reseeded := w
	reseeded.Seeds = []uint64{w.Seeds[0] + 1, w.Seeds[1]}
	if got := r.traceFor(reseeded, 0); &got[0] == &orig[0] {
		t.Error("same name with a different seed was handed the cached trace")
	}

	reprofiled := w
	reprofiled.Threads = append([]trace.Profile{}, w.Threads...)
	reprofiled.Threads[0].DepP = w.Threads[0].DepP / 2
	if got := r.traceFor(reprofiled, 0); &got[0] == &orig[0] {
		t.Error("same name with a different profile was handed the cached trace")
	}

	// And the converse: an identical (profile, seed, length) under a new
	// name still shares — the cache keys content, not names.
	renamed := w
	renamed.Name = w.Name + "-alias"
	if got := r.traceFor(renamed, 0); &got[0] != &orig[0] {
		t.Error("identical seed/profile under a new name regenerated the trace")
	}
}

// TestRunnerSpecKeyedByWorkloadContent extends the aliasing rule to the
// runner's session maps: a hand-built Workload reusing a pool name with
// different seeds must not recall the pool workload's memoized cache key
// or result.
func TestRunnerSpecKeyedByWorkloadContent(t *testing.T) {
	r := NewRunner(1200)
	w := workload.ByCategory("ispec00")[0]
	spec := iqStudySpec(w, "icount", 32)
	a, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	alias := w
	alias.Seeds = []uint64{w.Seeds[0] + 1, w.Seeds[1] + 1}
	aliasSpec := iqStudySpec(alias, "icount", 32)
	if r.CacheKey(spec) == r.CacheKey(aliasSpec) {
		t.Error("same-name workload with different seeds shares a content key")
	}
	b, err := r.Run(aliasSpec)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("same-name workload with different seeds recalled the cached result")
	}
}

// TestRunnerShapeChangesCacheKey: machine-shape spec fields must reach the
// canonical config, giving every swept shape its own content-addressed key,
// while the zero shape keeps the legacy key.
func TestRunnerShapeChangesCacheKey(t *testing.T) {
	r := NewRunner(1500)
	w := workload.ByCategory("ispec00")[0]
	base := iqStudySpec(w, "icount", 32)
	seen := map[string]string{r.CacheKey(base): "zero shape"}
	muts := []struct {
		name string
		mut  func(*Spec)
	}{
		{"clusters", func(s *Spec) { s.NumClusters = 3 }},
		{"links", func(s *Spec) { s.Links = 1 }},
		{"link latency", func(s *Spec) { s.LinkLatency = 4 }},
		{"mem latency", func(s *Spec) { s.MemLatency = 300 }},
	}
	for _, m := range muts {
		s := base
		m.mut(&s)
		k := r.CacheKey(s)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s shares a cache key with %s", m.name, prev)
		}
		seen[k] = m.name
	}
	// Explicit Table 1 values hash identically to the zero shape.
	explicit := base
	explicit.NumClusters, explicit.Links, explicit.LinkLatency, explicit.MemLatency = 2, 2, 1, 60
	if r.CacheKey(explicit) != r.CacheKey(base) {
		t.Error("explicit Table 1 shape produced a different key than the zero shape")
	}
}

// TestRunnerZeroValueUsable guards the lazy map initialization: a Runner
// built as a struct literal (no NewRunner) must still memoize safely.
func TestRunnerZeroValueUsable(t *testing.T) {
	r := &Runner{TraceLen: 1200, MaxCycles: 1200 * 40}
	w := workload.ByCategory("ispec00")[0]
	spec := iqStudySpec(w, "icount", 32)
	a, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("zero-value runner failed to memoize")
	}
}

// TestStoreHitKeysOnce: a store hit allocates no more than keying its spec
// does. Each key computation marshals and hashes every thread profile, so
// a run that keyed its spec twice (once for the memo, again for the
// singleflight table) would double the allocations of every recalled item.
func TestStoreHitKeysOnce(t *testing.T) {
	r := NewRunner(1000)
	w, err := workload.Find("dh.ilp.2.1")
	if err != nil {
		t.Fatal(err)
	}
	spec := iqStudySpec(w, "icount", 32)
	if err := r.Store.Put(r.CacheKey(spec), &metrics.Stats{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	keying := testing.AllocsPerRun(100, func() { r.CacheKey(spec) })
	hit := testing.AllocsPerRun(100, func() {
		if _, err := r.Run(spec); err != nil {
			t.Fatal(err)
		}
	})
	if hit > keying {
		t.Fatalf("store-hit Run = %v allocs, keying alone = %v: the run keys its spec more than once", hit, keying)
	}
	if r.Executed() != 0 {
		t.Fatalf("store hit executed %d simulations", r.Executed())
	}
}
