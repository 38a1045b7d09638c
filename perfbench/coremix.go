package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"clustersmt/internal/core"
	"clustersmt/internal/isa"
	"clustersmt/internal/metrics"
	"clustersmt/internal/trace"
	"clustersmt/internal/workload"
)

// coreMixTraceLen is the per-thread trace length of core-mix.
const coreMixTraceLen = 10_000

// coreMixPerCategory is how many pairs of each type core-mix draws from
// each category. Ten categories × two × three types × two schemes make a
// round of 120 simulations.
const coreMixPerCategory = 2

// coreReq is one core-mix request: a pool pair under one scheme.
type coreReq struct {
	w      workload.Workload
	scheme string
	progs  []core.ThreadProgram
}

// coreMix runs simulations serially through core.NewScheme and
// Processor.Run: no campaign, store or HTTP code is on the path.
type coreMix struct {
	env
	reqs  []coreReq
	genS  float64
	first []*metrics.Stats // stats of round 0, by position in the round
	bad   error            // first invariant violation seen in a request

	// Traced phase only.
	cycles, uops   uint64
	allocBytes     uint64
	tracedRequests int
}

func newCoreMix(e env) bench { return &coreMix{env: e} }

func (m *coreMix) roundLen() int { return len(m.reqs) }

func (m *coreMix) close() {}

// setup draws two ILP, two MEM and two MIX pairs per category, gives each
// pair one of the ten scheme pairs, each scheme pair twice per type (so
// each type runs every scheme eight times), and generates every trace.
func (m *coreMix) setup(context.Context) error {
	rng := newRNG(m.seed)
	triples := drawTriples(rng, coreMixPerCategory)
	sp := schemePairs()
	for typ := 0; typ < 3; typ++ {
		var perm []int
		for len(perm) < len(triples) {
			perm = append(perm, rng.Perm(len(sp))...)
		}
		for c, t := range triples {
			w := t.pairs[typ]
			progs := make([]core.ThreadProgram, len(w.Threads))
			for i, prof := range w.Threads {
				start := time.Now()
				uops := trace.NewGenerator(prof, w.Seeds[i]).Generate(coreMixTraceLen)
				m.genS += time.Since(start).Seconds()
				progs[i] = core.ThreadProgram{Trace: uops, Profile: prof, Seed: w.Seeds[i]}
			}
			for _, s := range sp[perm[c]] {
				m.reqs = append(m.reqs, coreReq{w: w, scheme: s, progs: progs})
			}
		}
	}
	rng.Shuffle(len(m.reqs), func(i, j int) { m.reqs[i], m.reqs[j] = m.reqs[j], m.reqs[i] })
	return nil
}

// simulate runs one request to completion.
func (m *coreMix) simulate(r coreReq) (*core.Processor, *metrics.Stats, error) {
	endNew := m.tr.begin("core.new")
	p, err := core.NewScheme(core.DefaultConfig(len(r.progs)), r.scheme, r.progs)
	endNew()
	if err != nil {
		return nil, nil, err
	}
	defer m.tr.begin("core.run")()
	return p, p.Run(), nil
}

func (m *coreMix) request(_ context.Context, i int) (int, error) {
	r := m.reqs[i%len(m.reqs)]
	var ms0 runtime.MemStats
	traced := m.tr.recording()
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	p, st, err := m.simulate(r)
	m.acct.outcome("simulations", err)
	if err != nil {
		return 0, fmt.Errorf("%s under %s: %w", r.w.Name, r.scheme, err)
	}
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		m.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		m.cycles += uint64(p.Now())
		m.uops += st.TotalCommitted()
		m.tracedRequests++
	}
	if err := checkRun(p, st, r); err != nil && m.bad == nil {
		m.bad = fmt.Errorf("%s under %s: %w", r.w.Name, r.scheme, err)
	}
	pos := i % len(m.reqs)
	switch {
	case i < len(m.reqs):
		m.first = append(m.first, st)
	case !reflect.DeepEqual(m.first[pos], st) && m.bad == nil:
		m.bad = fmt.Errorf("%s under %s: a repeated simulation gave different stats", r.w.Name, r.scheme)
	}
	return 1, nil
}

// checkRun tests properties every finished simulation must have.
func checkRun(p *core.Processor, st *metrics.Stats, r coreReq) error {
	cfg := p.Config()
	if p.Now() >= cfg.MaxCycles {
		return fmt.Errorf("hit MaxCycles (%d)", cfg.MaxCycles)
	}
	drained := false
	for t, prog := range r.progs {
		drained = drained || p.Committed(t) == uint64(len(prog.Trace))
	}
	if !drained {
		return errors.New("no thread committed its whole trace")
	}
	var fetched uint64
	for _, f := range st.Fetched {
		fetched += f
	}
	committed := st.TotalCommitted()
	switch {
	case committed > st.IssuedUops || st.IssuedUops > st.Renamed:
		return fmt.Errorf("committed %d ≤ issued %d ≤ renamed %d does not hold", committed, st.IssuedUops, st.Renamed)
	case committed > fetched:
		return fmt.Errorf("committed %d exceeds fetched %d", committed, fetched)
	case st.IPC() > float64(cfg.CommitWidth):
		return fmt.Errorf("IPC %.3f exceeds the commit width %d", st.IPC(), cfg.CommitWidth)
	case st.Mispredicts > st.BranchLookups:
		return fmt.Errorf("%d mispredicts for %d branch lookups", st.Mispredicts, st.BranchLookups)
	}
	return nil
}

// mixSigmas is the binomial bound on a generated class count: a count
// further than this many standard deviations from n·p has odds below
// 1e-8 under the profile's own mix.
const mixSigmas = 6

// checkMix tests that a trace's uop classes follow the profile's
// normalised Mix fractions.
func checkMix(uops []isa.Uop, prof trace.Profile) error {
	want := map[isa.Class]float64{
		isa.Int: prof.MixInt, isa.IntMul: prof.MixIntMul, isa.Fp: prof.MixFp,
		isa.Load: prof.MixLoad, isa.Store: prof.MixStore, isa.Branch: prof.MixBranch,
	}
	total := 0.0
	for _, f := range want {
		total += f
	}
	got := map[isa.Class]float64{}
	for _, u := range uops {
		got[u.Class]++
	}
	n := float64(len(uops))
	for class, f := range want {
		p := f / total
		sd := math.Sqrt(n * p * (1 - p))
		if d := math.Abs(got[class] - n*p); d > mixSigmas*sd+1 {
			return fmt.Errorf("%s: %v count %v is %.1f from the expected %.1f (bound %.1f)",
				prof.Name, class, got[class], d, n*p, mixSigmas*sd+1)
		}
		delete(got, class)
	}
	if len(got) > 0 {
		return fmt.Errorf("%s: classes outside the profile's mix: %v", prof.Name, got)
	}
	return nil
}

func (m *coreMix) verify(context.Context) error {
	if m.bad != nil {
		return m.bad
	}
	seen := map[*isa.Uop]bool{}
	for _, r := range m.reqs {
		for _, prog := range r.progs {
			if seen[&prog.Trace[0]] {
				continue
			}
			seen[&prog.Trace[0]] = true
			if err := checkMix(prog.Trace, prog.Profile); err != nil {
				return err
			}
		}
	}
	// Repeat one simulation explicitly, whether or not the timed phase
	// reached a second round.
	_, st, err := m.simulate(m.reqs[0])
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(m.first[0], st) {
		return fmt.Errorf("%s under %s: a repeated simulation gave different stats", m.reqs[0].w.Name, m.reqs[0].scheme)
	}
	return nil
}

func (m *coreMix) layers(l *layerRun) {
	n := float64(m.tracedRequests)
	o := l.out
	o["trace.gen_s"] = m.genS
	o["core.new_s"] = sum(l.tr.durations("core.new")) / n
	o["core.run_s"] = sum(l.tr.durations("core.run")) / n
	o["core.ns_per_cycle"] = sum(l.tr.durations("core.run")) / float64(m.cycles) * 1e9
	o["core.uops_per_s"] = float64(m.uops) / sum(l.tr.durations("core.run"))
	o["core.alloc_mb"] = float64(m.allocBytes) / n / 1e6
	profilePerSim(l, n)
	// Work counts of one round; they repeat exactly for a seed.
	var cycles, fetched, renamed, issued, squashed, committed uint64
	for _, st := range m.first {
		cycles += uint64(st.Cycles)
		for _, f := range st.Fetched {
			fetched += f
		}
		renamed += st.Renamed
		issued += st.IssuedUops
		squashed += st.Squashed
		committed += st.TotalCommitted()
	}
	o["core.sim_cycles"] = float64(cycles)
	o["core.fetched_uops"] = float64(fetched)
	o["core.renamed_uops"] = float64(renamed)
	o["core.issued_uops"] = float64(issued)
	o["core.squashed_uops"] = float64(squashed)
	o["core.committed_uops"] = float64(committed)
	o["core.useful_fetch_ratio"] = float64(committed) / float64(fetched)

	// Reference figures: each drawn pair's simulated IPC and cycles.
	type ref struct {
		label string
		st    *metrics.Stats
	}
	var refs []ref
	for k, st := range m.first {
		refs = append(refs, ref{m.reqs[k].w.Name + " " + m.reqs[k].scheme, st})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].label < refs[j].label })
	for _, r := range refs {
		fmt.Printf("# sim %-24s ipc %.4f cycles %d\n", r.label, r.st.IPC(), r.st.Cycles)
	}
}

// profilePerSim copies the profile's stage and model CPU seconds into the
// per-layer metrics, per simulation.
func profilePerSim(l *layerRun, sims float64) {
	line := "# CPU share of simulation:"
	for _, r := range profileRules {
		if !strings.HasPrefix(r.metric, "profile.") {
			l.out[r.metric] = l.prof[r.metric] / sims
			line += fmt.Sprintf(" %s %.1f%%", r.metric, 100*l.prof[r.metric]/l.prof["profile.sim_s"])
		}
	}
	fmt.Println(line)
}
