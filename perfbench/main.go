// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the simulator only through its public Go API and
// the daemon's HTTP routes, in one of four closed-loop workloads, checks
// every output, and prints its metrics as one JSON line. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
)

// metricDef is one reported metric; the lists mirror BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"results_per_s", "1/s"},
	{"request_p50_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

var perLayer = []metricDef{
	{"trace.gen_s", "s"},
	{"core.run_s", "s"},
	{"core.new_s", "s"},
	{"core.ns_per_cycle", "ns"},
	{"core.uops_per_s", "1/s"},
	{"core.stage.completions_s", "s"},
	{"core.stage.flush_s", "s"},
	{"core.stage.commit_s", "s"},
	{"core.stage.issue_s", "s"},
	{"core.stage.rename_s", "s"},
	{"core.stage.fetch_s", "s"},
	{"core.stage.endcycle_s", "s"},
	{"core.wrongpath_s", "s"},
	{"core.policy_s", "s"},
	{"core.steer_s", "s"},
	{"core.cachesim_s", "s"},
	{"core.bpred_s", "s"},
	{"core.sim_cycles", "count"},
	{"core.fetched_uops", "count"},
	{"core.renamed_uops", "count"},
	{"core.issued_uops", "count"},
	{"core.squashed_uops", "count"},
	{"core.committed_uops", "count"},
	{"core.useful_fetch_ratio", "ratio"},
	{"core.alloc_mb", "MB"},
	{"runner.cachekey_first_us", "us"},
	{"runner.cachekey_repeat_us", "us"},
	{"runner.executed", "count"},
	{"runner.store_hits", "count"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"store.get_s", "s"},
	{"store.put_s", "s"},
	{"store.gets", "count"},
	{"store.puts", "count"},
	{"store.entry_kb", "KB"},
	{"campaign.plan_us", "us"},
	{"campaign.item_wait_s", "s"},
	{"campaign.item_run_s", "s"},
	{"campaign.worker_busy_ratio", "ratio"},
	{"service.submit_ms", "ms"},
	{"service.first_event_ms", "ms"},
	{"service.terminal_ms", "ms"},
	{"service.results_ms", "ms"},
	{"service.results_kb", "KB"},
	{"service.sse_frames", "count"},
	{"fleet.lease_ms", "ms"},
	{"fleet.complete_ms", "ms"},
	{"fleet.store_get_ms", "ms"},
	{"fleet.store_put_ms", "ms"},
	{"fleet.leases", "count"},
	{"fleet.empty_leases", "count"},
	{"fleet.item_wait_s", "s"},
	{"fleet.requeues", "count"},
	{"fleet.duplicates", "count"},
	{"gc.cycles", "count"},
	{"gc.pause_s", "s"},
	{"bench.trace_overhead_pct", "%"},
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, which keeps one slow repetition from moving the figure.
const setupReps = 3

// env is what every workload instance is built from.
type env struct {
	seed uint64
	// dir is a scratch directory inside the checkout, private to this
	// instance (stores live here).
	dir  string
	tr   *tracer // nil in untraced runs
	acct *accounts
}

// bench is one workload. A closed loop calls request with a run-wide
// request index; requests come in rounds of roundLen, and the harness only
// ever runs whole rounds.
type bench interface {
	// setup prepares a fresh instance: inputs, stores, servers.
	setup(ctx context.Context) error
	roundLen() int
	// request performs request i and returns how many simulation results
	// it handed to the caller.
	request(ctx context.Context, i int) (int, error)
	// verify runs the checks that need the whole timed phase behind them.
	verify(ctx context.Context) error
	// layers fills the per-layer metrics of the traced phase.
	layers(l *layerRun)
	close()
}

// thinker is a workload whose client pauses before each request. The
// pause belongs to the timed phase but not to the request's latency.
type thinker interface {
	think(i int) time.Duration
}

// sleeper is a workload whose wall time is mostly fixed sleeps (idle
// polls, think pauses) that do not stretch when the host slows down: its
// wall figures are reported as measured, and only its CPU time is scaled
// to the reference host speed.
type sleeper interface {
	sleepBound()
}

var workloads = map[string]func(env) bench{
	"core-mix":      newCoreMix,
	"campaign-cold": newCampaignCold,
	"daemon-warm":   newDaemonWarm,
	"fleet-cold":    newFleetCold,
}

// accounts tallies operations by kind: simulations, campaigns, campaign
// items, jobs and HTTP requests.
type accounts struct {
	mu                sync.Mutex
	attempted, failed map[string]int
}

func newAccounts() *accounts {
	return &accounts{attempted: map[string]int{}, failed: map[string]int{}}
}

// add records n operations of kind, of which failed failed.
func (a *accounts) add(kind string, n, failed int) {
	a.mu.Lock()
	a.attempted[kind] += n
	a.failed[kind] += failed
	a.mu.Unlock()
}

// outcome records one operation of kind that ended with err.
func (a *accounts) outcome(kind string, err error) {
	f := 0
	if err != nil {
		f = 1
	}
	a.add(kind, 1, f)
}

// reset forgets the operations counted so far (those of set-up).
func (a *accounts) reset() {
	a.mu.Lock()
	clear(a.attempted)
	clear(a.failed)
	a.mu.Unlock()
}

func (a *accounts) totals() (attempted, failed int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for k, n := range a.attempted {
		attempted += n
		failed += a.failed[k]
	}
	return attempted, failed
}

// phase is what one timed loop measured.
type phase struct {
	requests, results, rounds int
	next                      int // request index after the phase
	wall, cpu                 time.Duration
	alloc                     uint64
	gcCycles                  uint32
	gcPause                   time.Duration
	latencies                 []float64
	roundRates                []float64 // results per second of each round
	roundFactors              []float64 // host factor of each round
	refs                      []float64 // seconds of each timed host reference walk
	refWall, refCPU           time.Duration
}

// hostFactor is how much slower than the reference host speed the host
// ran during the phase: the median time of the reference walks over
// refNominal. A walk runs right after a request, when the program's own
// goroutines may still be finishing it (the daemon tidies up once a job
// ends); the median leaves out the walks they interrupted, as long as
// most are not.
func (p phase) hostFactor() float64 { return hostFactor(p.refs) }

func hostFactor(refs []float64) float64 { return median(refs) / refNominal.Seconds() }

// programWall and programCPU are the phase's wall and CPU time without the
// host reference's.
func (p phase) programWall() time.Duration { return p.wall - p.refWall }
func (p phase) programCPU() time.Duration  { return p.cpu - p.refCPU }

// wallFactor is the factor that takes the workload's wall times to the
// reference host speed: the host factor, or 1 for a sleeper.
func (p phase) wallFactor(w bench) float64 {
	if _, ok := w.(sleeper); ok {
		return 1
	}
	return p.hostFactor()
}

// scaled returns the phase's results per second, median request latency
// and CPU seconds per request at the reference host speed; a sleeper's
// wall figures stay as measured.
func (p phase) scaled(w bench) (rate, p50, cpu float64) {
	wallH := p.wallFactor(w)
	return float64(p.results) / p.programWall().Seconds() * wallH,
		median(p.latencies) / wallH,
		p.programCPU().Seconds() / float64(p.requests) / p.hostFactor()
}

// measureHost times the host reference into the phase.
func (p *phase) measureHost() {
	w0, c0 := time.Now(), cpuTime()
	p.refs = append(p.refs, hostRef().Seconds())
	p.refWall += time.Since(w0)
	p.refCPU += cpuTime() - c0
}

// layerRun carries the traced phase into a workload's layers method.
type layerRun struct {
	ph   phase
	tr   *tracer
	prof map[string]float64 // CPU seconds per profile rule
	out  map[string]float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// timed runs whole rounds of requests, starting at request index first,
// until seconds have passed.
func timed(ctx context.Context, w bench, seconds float64, first int, tr *tracer) (phase, error) {
	ph := phase{next: first}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := cpuTime(), time.Now()
	ph.measureHost()
	lastRef := time.Now()
	var err error
	for err == nil && ctx.Err() == nil && (ph.rounds == 0 || time.Since(t0).Seconds() < seconds) {
		roundStart, roundResults, roundRefs := time.Now(), ph.results, len(ph.refs)
		for j := 0; j < w.roundLen() && err == nil; j++ {
			if th, ok := w.(thinker); ok {
				select {
				case <-time.After(th.think(ph.next)):
				case <-ctx.Done():
				}
			}
			end := tr.beginRequest(int64(ph.next))
			start := time.Now()
			var n int
			n, err = w.request(ctx, ph.next)
			ph.latencies = append(ph.latencies, time.Since(start).Seconds())
			end()
			if err != nil {
				err = fmt.Errorf("request %d: %w", ph.next, err)
			}
			ph.next++
			ph.requests++
			ph.results += n
			if time.Since(lastRef) >= refEvery {
				ph.measureHost()
				lastRef = time.Now()
			}
		}
		ph.rounds++
		ph.roundRates = append(ph.roundRates, float64(ph.results-roundResults)/time.Since(roundStart).Seconds())
		if len(ph.refs) > roundRefs {
			ph.roundFactors = append(ph.roundFactors, hostFactor(ph.refs[roundRefs:]))
		}
	}
	ph.wall, ph.cpu = time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)
	ph.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcCycles = ms1.NumGC - ms0.NumGC
	ph.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	if err == nil {
		err = ctx.Err()
	}
	return ph, err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "core-mix", "workload: core-mix, campaign-cold, daemon-warm or fleet-cold")
	seed := flag.Uint64("seed", 1, "seed of the workload draw (README records the held-back confirmation seed)")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds (whole rounds are always completed)")
	traceMode := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.Parse()
	factory, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceMode)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(".bench_build", "perfbench-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	acct := newAccounts()
	var res result
	var checkErr error
	if *traceMode == 1 {
		res.Metrics, checkErr = tracedRun(ctx, *name, factory, env{seed: *seed, dir: scratch, acct: acct}, *seconds)
	} else {
		res.Metrics, checkErr = untracedRun(ctx, factory, env{seed: *seed, dir: scratch, acct: acct}, *seconds)
	}
	res.Attempted, res.Failed = acct.totals()
	res.Correct = checkErr == nil && res.Failed == 0 && res.Attempted > 0
	for _, k := range sortedKeys(acct.attempted) {
		fmt.Printf("# %s: %d attempted, %d failed\n", k, acct.attempted[k], acct.failed[k])
	}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", checkErr)
	}
	if res.Metrics == nil {
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// untracedRun sets the workload up setupReps times, measures the timed
// phase and verifies it, returning the end-to-end metrics.
func untracedRun(ctx context.Context, factory func(env) bench, e env, seconds float64) (map[string]metricValue, error) {
	root := e.dir
	var w bench
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if w != nil {
			w.close()
		}
		e.dir = filepath.Join(root, fmt.Sprintf("setup%d", r))
		w = factory(e)
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()
	e.acct.reset()
	ph, err := timed(ctx, w, seconds, 0, nil)
	if err == nil {
		err = w.verify(ctx)
	}
	reportLatency(ph)
	rate, p50, cpu := ph.scaled(w)
	return metricMap(endToEnd, map[string]float64{
		// The set-ups end seconds before the timed phase starts, and the
		// host's speed moves over tens of seconds, so the phase's factor
		// is the set-ups' too.
		"setup_s":       median(setups) / ph.wallFactor(w),
		"results_per_s": rate,
		"request_p50_s": p50,
		"cpu_s":         cpu,
		"peak_rss_mb":   peakRSSMB(),
		"alloc_mb":      float64(ph.alloc) / float64(ph.requests) / 1e6,
	}), err
}

// tracedRun sets the workload up once, runs half the time untraced and
// half traced (spans, timing wrappers and a CPU profile), verifies, and
// returns the per-layer metrics of the traced half plus the tracing
// overhead: how much lower the traced half's throughput was.
func tracedRun(ctx context.Context, name string, factory func(env) bench, e env, seconds float64) (map[string]metricValue, error) {
	e.tr = newTracer(name)
	w := factory(e)
	defer w.close()
	if err := w.setup(ctx); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	e.acct.reset()
	plain, err := timed(ctx, w, seconds/2, 0, nil)
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	e.tr.on.Store(true)
	ph, err := timed(ctx, w, seconds/2, plain.next, e.tr)
	e.tr.on.Store(false)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := w.verify(ctx); err != nil {
		return nil, err
	}
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	l := &layerRun{ph: ph, tr: e.tr, prof: attribute(samples, profileRules), out: map[string]float64{}}
	w.layers(l)
	n := float64(ph.requests)
	l.out["gc.cycles"] = float64(ph.gcCycles) / n
	l.out["gc.pause_s"] = ph.gcPause.Seconds() / n
	plainRate, _, _ := plain.scaled(w)
	tracedRate, _, _ := ph.scaled(w)
	l.out["bench.trace_overhead_pct"] = (plainRate - tracedRate) / plainRate * 100
	fmt.Printf("# traced %d requests in %d rounds; untraced half %.4g results/s, traced half %.4g results/s\n",
		ph.requests, ph.rounds, plainRate, tracedRate)

	out := filepath.Join(".bench_build", "perfbench-out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", name, e.seed))
	if err := e.tr.writeSpans(base + ".spans.jsonl"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("# spans: %s.spans.jsonl, profile: %s.cpu.pprof\n", base, base)
	return metricMap(perLayer, l.out), nil
}

// metricMap pairs every defined metric with its value; a metric the
// workload has no layer for reads 0.
func metricMap(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// reportLatency prints the request latency distribution: quartiles, and
// the highest tail percentile with at least ten samples beyond it.
func reportLatency(ph phase) {
	q := quartiles(ph.latencies)
	fmt.Printf("# %d requests in %d rounds, %.3f s: latency q1 %.4g s, median %.4g s, q3 %.4g s",
		ph.requests, ph.rounds, ph.wall.Seconds(), q[0], q[1], q[2])
	if p, v, ok := highestTail(ph.latencies); ok {
		fmt.Printf(", p%g %.4g s\n", p, v)
	} else {
		fmt.Printf(" (too few samples for a tail)\n")
	}
	fmt.Printf("# host factor %.4f (%d reference walks, %.3f s); as measured: %.4g results/s, latency median %.4g s, CPU %.4g s per request\n",
		ph.hostFactor(), len(ph.refs), ph.refWall.Seconds(), float64(ph.results)/ph.programWall().Seconds(),
		q[1], ph.programCPU().Seconds()/float64(ph.requests))
	fmt.Printf("# results/s by round (as measured, reference walks included):")
	for _, r := range ph.roundRates {
		fmt.Printf(" %.4g", r)
	}
	fmt.Printf("\n# host factor by round:")
	for _, f := range ph.roundFactors {
		fmt.Printf(" %.4g", f)
	}
	fmt.Println()
}
