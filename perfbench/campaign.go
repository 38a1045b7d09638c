package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/store"
	"clustersmt/internal/experiments"
	"clustersmt/internal/trace"
)

// coldTraceLen is the campaign default trace length, written out.
const coldTraceLen = 20_000

// coldIQSizes is the issue-queue axis of every campaign-cold campaign.
var coldIQSizes = []int{32, 64}

// simWorkers bounds simulating goroutines in every workload process.
const simWorkers = 2

// coldRun is one finished campaign of campaign-cold.
type coldRun struct {
	round int
	rs    *campaign.ResultSet
}

// campaignCold runs distinct campaigns through campaign.Engine.RunCtx with
// two workers. Each round is one campaign per category on a store and
// engine of its own, opened fresh when the round starts, so every round
// repeats the same cold work: trace generation, keying, parallel dispatch,
// store writes and plan/fairness assembly.
type campaignCold struct {
	env
	manifests [][]byte
	eng       *campaign.Engine
	stores    []*store.Store // by round
	runs      []coldRun

	// Traced phase only.
	mu             sync.Mutex
	started        map[int]time.Time
	itemWait       []float64
	itemRun        []float64
	tracedCampaign []int // indices into runs
}

func newCampaignCold(e env) bench { return &campaignCold{env: e} }

func (c *campaignCold) roundLen() int { return len(c.manifests) }

func (c *campaignCold) close() {}

// setup draws one triple of pool workloads per category and gives each
// category one of the ten scheme pairs: a campaign sweeps its three
// workloads × two schemes × two IQ sizes, plus single-thread baselines,
// 24 simulations in all. It then runs a fixed warm-up campaign once on a
// throwaway store and engine, so the heap and code paths are warm when
// timing starts; without it set-up is a sub-millisecond directory
// creation whose run-to-run jitter is several times its size.
func (c *campaignCold) setup(ctx context.Context) error {
	rng := newRNG(c.seed)
	sp := schemePairs()
	perm := rng.Perm(len(sp))
	for k, t := range drawTriples(rng, 1) {
		name := fmt.Sprintf("cold-%s", t.category)
		c.manifests = append(c.manifests, campaignManifest(name, t.names(), sp[perm[k]][:], coldIQSizes, coldTraceLen))
	}
	st, err := store.Open(filepath.Join(c.dir, "warmup"))
	if err != nil {
		return err
	}
	m, err := campaign.Parse(warmupManifest(coldIQSizes, coldTraceLen))
	if err != nil {
		return err
	}
	warm := &campaign.Engine{Store: st, Resume: true, Workers: simWorkers}
	rs, err := warm.RunCtx(ctx, m, nil)
	if err != nil {
		return err
	}
	return checkResultSet(rs)
}

// engineFor returns the engine of request i's round, opening a fresh store
// and engine when a round begins.
func (c *campaignCold) engineFor(i int) (*campaign.Engine, error) {
	round := i / len(c.manifests)
	if round < len(c.stores) {
		return c.eng, nil
	}
	st, err := store.Open(filepath.Join(c.dir, fmt.Sprintf("round%d", round)))
	if err != nil {
		return nil, err
	}
	c.stores = append(c.stores, st)
	var rs experiments.ResultStore = st
	if c.tr != nil {
		rs = timedStore{st, c.tr}
	}
	c.eng = &campaign.Engine{Store: rs, Resume: true, Workers: simWorkers}
	return c.eng, nil
}

func (c *campaignCold) request(ctx context.Context, i int) (int, error) {
	eng, err := c.engineFor(i)
	if err != nil {
		return 0, err
	}
	m, err := campaign.Parse(c.manifests[i%len(c.manifests)])
	if err != nil {
		return 0, err
	}
	var progress func(campaign.ItemEvent)
	if c.tr.recording() {
		progress = c.itemEvent(time.Now())
		c.tracedCampaign = append(c.tracedCampaign, len(c.runs))
	}
	rs, err := eng.RunCtx(ctx, m, progress)
	c.acct.outcome("campaigns", err)
	if err != nil {
		return 0, err
	}
	c.acct.add("campaign_items", rs.Total, rs.Failed)
	c.runs = append(c.runs, coldRun{round: i / len(c.manifests), rs: rs})
	return rs.Total, nil
}

// itemEvent returns the progress callback of a traced campaign that
// started at begin: it records each item's wait for a worker and its run.
func (c *campaignCold) itemEvent(begin time.Time) func(campaign.ItemEvent) {
	return func(ev campaign.ItemEvent) {
		now := time.Now()
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.started == nil {
			c.started = map[int]time.Time{}
		}
		switch {
		case ev.Started:
			c.started[ev.Index] = now
			c.itemWait = append(c.itemWait, now.Sub(begin).Seconds())
			c.tr.record("campaign.item_wait", begin, now)
		case ev.Result != nil:
			start := c.started[ev.Index]
			delete(c.started, ev.Index)
			c.itemRun = append(c.itemRun, now.Sub(start).Seconds())
			c.tr.record("campaign.item_run", start, now)
		}
	}
}

func (c *campaignCold) verify(ctx context.Context) error {
	executed := make([]int, len(c.stores))
	for _, r := range c.runs {
		if err := checkResultSet(r.rs); err != nil {
			return err
		}
		executed[r.round] += r.rs.Executed
		if err := checkRowsAgainstStore(r.rs, c.stores[r.round]); err != nil {
			return err
		}
		if err := checkFairness(r.rs); err != nil {
			return err
		}
	}
	for round, st := range c.stores {
		n, err := st.Len()
		if err != nil {
			return err
		}
		if n != executed[round] {
			return fmt.Errorf("round %d: store holds %d entries after %d executed simulations", round, n, executed[round])
		}
	}
	// Resubmitting the last round's first campaign executes nothing and
	// returns the same rows.
	last := (len(c.runs) - 1) / len(c.manifests) * len(c.manifests)
	m, err := campaign.Parse(c.manifests[0])
	if err != nil {
		return err
	}
	again, err := c.eng.RunCtx(ctx, m, nil)
	if err != nil {
		return err
	}
	if again.Executed != 0 {
		return fmt.Errorf("resubmitted campaign executed %d simulations", again.Executed)
	}
	if !sameRows(c.runs[last].rs.Results, again.Results) {
		return fmt.Errorf("resubmitted campaign %s returned different rows", m.Name)
	}
	return nil
}

// checkResultSet tests a campaign's tally.
func checkResultSet(rs *campaign.ResultSet) error {
	if rs.Failed != 0 {
		return fmt.Errorf("campaign %s: %d of %d items failed: %v", rs.Campaign, rs.Failed, rs.Total, rs.Err())
	}
	if rs.Executed+rs.StoreHits != rs.Total {
		return fmt.Errorf("campaign %s: executed %d + store hits %d != total %d", rs.Campaign, rs.Executed, rs.StoreHits, rs.Total)
	}
	return nil
}

// checkRowsAgainstStore tests that each row's IPC is its stored entry's
// committed uops over cycles.
func checkRowsAgainstStore(rs *campaign.ResultSet, st experiments.ResultStore) error {
	for _, row := range rs.Results {
		s, ok, err := st.Get(row.Key)
		if err != nil || !ok {
			return fmt.Errorf("campaign %s: row %s has no stored entry (%v)", rs.Campaign, row.Label, err)
		}
		var committed uint64
		for _, c := range s.Committed {
			committed += c
		}
		if ipc := float64(committed) / float64(s.Cycles); ipc != row.IPC {
			return fmt.Errorf("campaign %s: row %s IPC %v, stored entry gives %v", rs.Campaign, row.Label, row.IPC, ipc)
		}
	}
	return nil
}

// checkFairness recomputes every SMT row's fairness from its per-thread
// IPCs and the single-thread rows at the same axis point.
func checkFairness(rs *campaign.ResultSet) error {
	type point struct {
		workload                         string
		iq, rf, rob, tl, rep, thread     int
		clusters, links, linkLat, memLat int
	}
	pointOf := func(r campaign.Result, thread int) point {
		return point{r.Workload, r.IQSize, r.RegsPerClust, r.ROBPerThread, r.TraceLen, r.Rep, thread,
			r.NumClusters, r.Links, r.LinkLatency, r.MemLatency}
	}
	single := map[point]float64{}
	for _, r := range rs.Results {
		if r.SingleThread >= 0 {
			single[pointOf(r, r.SingleThread)] = r.IPC
		}
	}
	for _, r := range rs.Results {
		if r.SingleThread >= 0 {
			continue
		}
		singles := make([]float64, len(r.ThreadIPC))
		for t := range singles {
			ipc, ok := single[pointOf(r, t)]
			if !ok {
				return fmt.Errorf("campaign %s: row %s has no single-thread baseline for thread %d", rs.Campaign, r.Label, t)
			}
			singles[t] = ipc
		}
		want, err := fairness(singles, r.ThreadIPC)
		if err != nil {
			return fmt.Errorf("campaign %s: row %s: %w", rs.Campaign, r.Label, err)
		}
		if r.Fairness <= 0 || r.Fairness > 1 || math.Abs(r.Fairness-want) > 1e-12 {
			return fmt.Errorf("campaign %s: row %s fairness %v, the §4 definition gives %v", rs.Campaign, r.Label, r.Fairness, want)
		}
	}
	return nil
}

// sameRows compares result rows, ignoring whether each was recalled.
func sameRows(a, b []campaign.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Cached, y.Cached = false, false
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

func (c *campaignCold) layers(l *layerRun) {
	o := l.out
	var sims, cycles, uops float64
	var gen []float64
	var manifests [][]byte
	for _, k := range c.tracedCampaign {
		r := c.runs[k]
		sims += float64(r.rs.Executed)
		for _, row := range r.rs.Results {
			if s, ok, err := c.stores[r.round].Get(row.Key); err == nil && ok {
				cycles += float64(s.Cycles)
				uops += float64(s.TotalCommitted())
			}
		}
		b := c.manifests[k%len(c.manifests)]
		manifests = append(manifests, b)
		gen = append(gen, generateProfiles(b))
	}
	o["trace.gen_s"] = median(gen)
	o["core.run_s"] = l.prof["profile.sim_s"] / sims
	o["core.new_s"] = l.prof["profile.new_s"] / sims
	o["core.ns_per_cycle"] = l.prof["profile.sim_s"] / cycles * 1e9
	o["core.uops_per_s"] = uops / l.prof["profile.sim_s"]
	profilePerSim(l, sims)
	manifestLayers(l, manifests)
	o["campaign.item_wait_s"] = median(c.itemWait)
	o["campaign.item_run_s"] = median(c.itemRun)
	o["campaign.worker_busy_ratio"] = sum(c.itemRun) / (simWorkers * sum(l.tr.durations("request")))
	storeLayers(l, c.runsResults(c.tracedCampaign), storeDirs(c.stores))
}

// runsResults returns the result sets of the given runs.
func (c *campaignCold) runsResults(idx []int) []*campaign.ResultSet {
	out := make([]*campaign.ResultSet, len(idx))
	for i, k := range idx {
		out[i] = c.runs[k].rs
	}
	return out
}

// generateProfiles times generating every trace one campaign simulates,
// once per thread profile as the runner's trace memo does, and returns the
// seconds it took.
func generateProfiles(manifest []byte) float64 {
	m, err := campaign.Parse(manifest)
	if err != nil {
		return 0
	}
	plan, err := campaign.NewPlan(m)
	if err != nil {
		return 0
	}
	type key struct {
		name   string
		thread int
		tl     int
	}
	seen := map[key]bool{}
	start := time.Now()
	for _, it := range plan.Items {
		w := it.Spec.Workload
		for t, prof := range w.Threads {
			k := key{w.Name, t, it.TraceLen}
			if !seen[k] {
				seen[k] = true
				trace.NewGenerator(prof, w.Seeds[t]).Generate(it.TraceLen)
			}
		}
	}
	return time.Since(start).Seconds()
}

// manifestLayers times the campaign layer's planning and the runner's
// keying over the given manifests: Parse + Expand + NewPlan per manifest,
// the calls a daemon job makes (Submit expands to validate, the executor
// plans), and Runner.CacheKey for every item on a fresh runner, first
// (computed) and repeated (memoized).
func manifestLayers(l *layerRun, manifests [][]byte) {
	var plan, first, repeat []float64
	for _, b := range manifests {
		start := time.Now()
		m, err := campaign.Parse(b)
		if err != nil {
			continue
		}
		if _, err := m.Expand(); err != nil {
			continue
		}
		p, err := campaign.NewPlan(m)
		if err != nil {
			continue
		}
		plan = append(plan, time.Since(start).Seconds()*1e6)
		runners := map[int]*experiments.Runner{}
		for _, it := range p.Items {
			r := runners[it.TraceLen]
			if r == nil {
				r = experiments.NewRunner(it.TraceLen)
				runners[it.TraceLen] = r
			}
			t0 := time.Now()
			r.CacheKey(it.Spec)
			t1 := time.Now()
			r.CacheKey(it.Spec)
			first = append(first, t1.Sub(t0).Seconds()*1e6)
			repeat = append(repeat, time.Since(t1).Seconds()*1e6)
		}
	}
	l.out["campaign.plan_us"] = median(plan)
	l.out["runner.cachekey_first_us"] = median(first)
	l.out["runner.cachekey_repeat_us"] = median(repeat)
}

// storeLayers fills the runner and store metrics of the traced phase:
// work executed and recalled per request, store call latencies (medians),
// busy time and call counts per request, and the mean entry size on disk.
func storeLayers(l *layerRun, sets []*campaign.ResultSet, dirs []string) {
	n := float64(l.ph.requests)
	var executed, hits float64
	for _, rs := range sets {
		executed += float64(rs.Executed)
		hits += float64(rs.StoreHits)
	}
	gets, puts := l.tr.durations("store.get"), l.tr.durations("store.put")
	o := l.out
	o["runner.executed"] = executed / n
	o["runner.store_hits"] = hits / n
	o["store.get_us"] = median(gets) * 1e6
	o["store.put_us"] = median(puts) * 1e6
	o["store.get_s"] = sum(gets) / n
	o["store.put_s"] = sum(puts) / n
	o["store.gets"] = float64(len(gets)) / n
	o["store.puts"] = float64(len(puts)) / n
	o["store.entry_kb"] = meanFileKB(dirs)
}

func storeDirs(stores []*store.Store) []string {
	var out []string
	for _, s := range stores {
		out = append(out, s.Dir())
	}
	return out
}

// meanFileKB returns the mean size of the regular files under dirs.
func meanFileKB(dirs []string) float64 {
	var total, n float64
	for _, d := range dirs {
		filepath.WalkDir(d, func(_ string, e os.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return nil
			}
			if info, err := e.Info(); err == nil {
				total += float64(info.Size())
				n++
			}
			return nil
		})
	}
	if n == 0 {
		return 0
	}
	return total / n / 1e3
}
