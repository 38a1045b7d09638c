package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clustersmt/internal/core"
	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
)

// Engine executes expanded campaigns: every Plan item becomes a task on
// the engine's lease queue, and lease loops run the tasks on experiments
// runners, one per trace length, all sharing one persistent store layer.
//
// An Engine may be shared: runners (and with them the in-memory result
// layer, the singleflight tables and the trace memos) persist across RunCtx
// calls, so concurrent campaigns submitted to one Engine — the service
// daemon's configuration — deduplicate overlapping specs exactly once even
// while both are in flight, and their items interleave oldest-first on one
// queue.
//
// The queue is the only executor. The Engine's own in-process loops lease
// from it by direct call; the fleet coordinator (internal/campaign/fleet)
// is an Engine whose queue remote workers lease from over HTTP. Either way
// the Plan assembles the ResultSet, so a fleet run of a manifest is
// bit-for-bit comparable to a local run.
type Engine struct {
	// Store is the persistent result layer (typically *store.Store). Nil
	// runs the campaign memory-only.
	Store experiments.ResultStore
	// Resume (the default in expdriver) reuses results already in Store;
	// when false, existing entries are ignored and overwritten, forcing
	// every simulation to re-execute.
	Resume bool
	// Workers is the number of in-process lease loops, and so bounds the
	// simulations the engine runs at once across all its campaigns
	// (0 = NumCPU; < 0 = none: items wait for remote workers, the fleet
	// coordinator's setting).
	Workers int
	// Verbose, when set, receives one line per completed simulation.
	Verbose func(string)
	// SampleInterval, when non-zero, enables per-item time-series sampling:
	// executed items collect one metrics.Sample per interval cycles (see
	// core.Processor.SetSampler for rounding), attached to the item's
	// Result and forwarded through the progress callback — live from the
	// in-process loops, on completion from remote workers. Store hits
	// carry no samples — only actual simulations produce time series.
	SampleInterval int64

	mu        sync.Mutex
	mem       *experiments.MemStore
	runners   map[int]*experiments.Runner
	queue     *Queue
	active    int    // RunCtx calls in progress
	stopLoops func() // ends the current busy period's loops and waits for them

	// testExecErr, when set, fails in-process attempts before they
	// simulate: the fault-injection seam the fleet worker also has.
	testExecErr func(Task) error
}

// NewEngine returns an engine whose items go on q, a queue built with the
// caller's retry policy. The zero Engine builds a queue with the default
// policy (NewQueue(0, 0, 0, nil)) on first use.
func NewEngine(q *Queue) *Engine { return &Engine{queue: q} }

// localWorker is the lease holder name of the engine's in-process loops.
// Fleet worker IDs are "w%06d", so it never collides with one.
const localWorker = "local"

// localItem is what an in-process loop needs to run a task: the run's
// context, the runner for its trace length, its key and its sample sink.
type localItem struct {
	ctx    context.Context
	runner *experiments.Runner
	key    string
	sample func(metrics.Sample)
}

// ItemEvent reports one expanded item's lifecycle during RunCtx.
type ItemEvent struct {
	// Index addresses the item in the expansion (and the eventual
	// ResultSet.Results slice).
	Index int
	// Started marks the pickup event; the completion event carries Result.
	Started bool
	// Result is the completed item's outcome (nil on Started events). It
	// points into the ResultSet under construction and must be treated as
	// read-only.
	Result *Result
	// Sample, when non-nil, is one time-series observation window from the
	// item's running simulation (Engine.SampleInterval must be set). Sample
	// events fire between Started and the completion event, from the
	// simulating goroutine; the pointed-to value is never mutated after the
	// callback.
	Sample *metrics.Sample
}

// Result is one item's outcome, machine-readable for the JSON/CSV emitters
// and for Diff.
type Result struct {
	Label    string `json:"label"`
	Workload string `json:"workload"`
	// Scheme is the canonical scheme reference (a paper name, or the
	// normalized component grammar for composed specs); SchemeSpec echoes
	// the full sel/iq/rf composition for both, so result rows are
	// self-describing without the named registry at hand.
	Scheme       string    `json:"scheme"`
	SchemeSpec   string    `json:"scheme_spec,omitempty"`
	IQSize       int       `json:"iq_size"`
	RegsPerClust int       `json:"regs_per_cluster"`
	ROBPerThread int       `json:"rob_per_thread"`
	TraceLen     int       `json:"trace_len"`
	Rep          int       `json:"rep"`
	SingleThread int       `json:"single_thread"`
	NumClusters  int       `json:"num_clusters"`
	Links        int       `json:"links"`
	LinkLatency  int       `json:"link_latency"`
	MemLatency   int       `json:"mem_latency"`
	Key          string    `json:"key"`
	Cached       bool      `json:"cached"`
	IPC          float64   `json:"ipc"`
	CopiesPerRet float64   `json:"copies_per_retired"`
	IQStallsRet  float64   `json:"iq_stalls_per_retired"`
	ThreadIPC    []float64 `json:"thread_ipc,omitempty"`
	Fairness     float64   `json:"fairness,omitempty"`
	Error        string    `json:"error,omitempty"`
	// Samples is the item's simulation time series (one entry per closed
	// observation window), present only when the engine ran with
	// SampleInterval set AND this item actually executed: cached items
	// recall summary statistics, not time series.
	Samples []metrics.Sample `json:"samples,omitempty"`
}

// ResultSet is a completed campaign: every expanded item in expansion
// order, plus the execution tally. It is the diffable artifact campaigns
// exchange across branches.
type ResultSet struct {
	Campaign  string   `json:"campaign"`
	Version   string   `json:"version"`
	Total     int      `json:"total"`
	Executed  int      `json:"executed"`
	StoreHits int      `json:"store_hits"`
	Failed    int      `json:"failed"`
	Results   []Result `json:"results"`
}

// baselinePoint identifies one single-thread baseline coordinate. The
// machine shape participates: a baseline on a 1-cluster machine must not
// answer for an SMT run on 4 clusters.
type baselinePoint struct {
	base                 string
	rep, tl, iq, rf, rob int
	nc, lk, ll, ml       int
	thread               int
}

// pointOf projects an item onto its baseline coordinate for thread t.
func pointOf(it Item, t int) baselinePoint {
	return baselinePoint{
		base: it.Base, rep: it.Rep, tl: it.TraceLen,
		iq: it.Spec.IQSize, rf: it.Spec.RegsPerClust, rob: it.Spec.ROBPerThread,
		nc: it.Spec.NumClusters, lk: it.Spec.Links, ll: it.Spec.LinkLatency, ml: it.Spec.MemLatency,
		thread: t,
	}
}

// runnerFor returns the engine's shared runner for trace length tl,
// creating it on first use: a fresh-layer MemStore in front of the
// persistent store. With Resume disabled the
// runner is NOT cached and writes through a read-blind persistent layer, so
// every simulation re-executes while fresh results still land on disk.
func (e *Engine) runnerFor(tl int) *experiments.Runner {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.Resume {
		if r, ok := e.runners[tl]; ok {
			return r
		}
	}
	if e.mem == nil {
		e.mem = experiments.NewMemStore()
	}
	r := experiments.NewRunner(tl)
	r.Verbose = e.Verbose
	r.SampleInterval = e.SampleInterval
	if e.Resume {
		layers := []experiments.ResultStore{e.mem}
		if e.Store != nil {
			layers = append(layers, e.Store)
		}
		r.Store = experiments.Layered(layers...)
		if e.runners == nil {
			e.runners = make(map[int]*experiments.Runner)
		}
		e.runners[tl] = r
	} else {
		layers := []experiments.ResultStore{experiments.NewMemStore()}
		if e.Store != nil {
			layers = append(layers, experiments.WriteOnly(e.Store))
		}
		r.Store = experiments.Layered(layers...)
	}
	return r
}

// Recycle drops the engine's cached runners and shared in-memory result
// layer, releasing the trace memos and Stats they hold. Live campaigns are
// unaffected — they keep references to their runners, which stay valid;
// only future sharing starts cold. The service daemon calls this whenever
// it goes idle so a long-running process's memory is bounded by one busy
// period: with a persistent store underneath, the only cost is a disk read
// per recalled key.
func (e *Engine) Recycle() {
	e.mu.Lock()
	e.runners = nil
	e.mem = nil
	e.mu.Unlock()
}

// Run expands m and executes every item, recalling whatever the store
// already holds. Simulation failures do not abort the campaign: failed
// items carry their error and the set reports the partial tally, so an
// interrupted or partly broken campaign still lands its completed results
// (and a later -resume run executes only what is missing).
func (e *Engine) Run(m *Manifest) (*ResultSet, error) {
	return e.RunCtx(context.Background(), m, nil)
}

// Queue returns the engine's lease queue.
func (e *Engine) Queue() *Queue {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.queue == nil {
		e.queue = NewQueue(0, 0, 0, nil)
	}
	return e.queue
}

// begin registers a RunCtx call. The first call of a busy period starts
// the in-process lease loops.
func (e *Engine) begin() *Queue {
	q := e.Queue()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.active++; e.active == 1 && e.Workers >= 0 {
		n := e.Workers
		if n == 0 {
			n = runtime.NumCPU()
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			go func() {
				defer wg.Done()
				e.loop(ctx, q)
			}()
		}
		e.stopLoops = func() { cancel(); wg.Wait() }
	}
	return q
}

// end unregisters a RunCtx call; the last one stops the loops and waits
// until they have exited. Only a cancelled run's simulations can still be
// in flight then, and they stop at their next context poll.
func (e *Engine) end() {
	e.mu.Lock()
	e.active--
	stop := e.stopLoops
	if e.active > 0 {
		stop = nil
	} else {
		e.stopLoops = nil
	}
	e.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// loop is one in-process lease loop: it leases a task at a time, woken by
// the queue when work arrives, and runs it until ctx ends the busy period.
// A task cut off by its run's cancellation is not reported: the run has
// already removed it from the queue.
func (e *Engine) loop(ctx context.Context, q *Queue) {
	for {
		ts := q.LeaseWait(ctx, localWorker, 1, forever, 0)
		if len(ts) == 0 {
			return
		}
		t, it := ts[0], ts[0].local
		var st *metrics.Stats
		var executed bool
		var err error
		if e.testExecErr != nil {
			err = e.testExecErr(t)
		}
		if err == nil {
			st, executed, err = it.runner.RunKeyed(it.ctx, t.Spec, it.key, it.sample)
		}
		if err != nil && it.ctx.Err() != nil {
			continue
		}
		c := Completion{ID: t.ID, Attempt: t.Attempt, Executed: executed, Stats: st}
		if err != nil {
			c.Error, c.Stats = err.Error(), nil
		}
		q.Complete(localWorker, c)
	}
}

// forever is the lease ttl of in-process loops: nothing renews their
// leases, and nothing needs to — a loop that dies takes the process along.
const forever = 100 * 365 * 24 * time.Hour

// RunCtx is Run with cooperative cancellation and optional per-item
// progress reporting. Every item goes on the engine's queue; progress
// receives Started on every lease grant and exactly one Result per item.
// Failed attempts retry, and an item that fails every attempt is
// reported as poisoned. Cancelling the context stops in-flight
// simulations mid-run and fails the unfinished items with the context's
// error; completed items keep their results, so a cancelled campaign
// still returns the partial ResultSet. The progress callback (optional) is
// invoked from worker goroutines and must be safe for concurrent use.
func (e *Engine) RunCtx(ctx context.Context, m *Manifest, progress func(ItemEvent)) (*ResultSet, error) {
	plan, err := NewPlan(m)
	if err != nil {
		return nil, err
	}
	rs := plan.NewResultSet(core.SimVersion)
	n := len(plan.Items)
	if n == 0 {
		plan.Finalize(rs)
		return rs, nil
	}
	q := e.begin()
	defer e.end()

	// One runner per trace length; the engine shares runners (and their
	// in-memory layer) across campaigns, so concurrent submissions of
	// overlapping manifests singleflight into one execution per spec.
	runners := map[int]*experiments.Runner{}

	var (
		resMu     sync.Mutex
		completed = make([]bool, n)
		reported  atomic.Int64 // Result events delivered
		done      = make(chan struct{})
	)
	// Per-item time series from the in-process loops, collected outside
	// the Result until the item completes. Safe without a lock: one
	// attempt at a time simulates item i, and each attempt's Sample
	// callbacks happen-before its completion and the next lease.
	var samples [][]metrics.Sample
	if e.SampleInterval > 0 {
		samples = make([][]metrics.Sample, n)
	}
	prefix := fmt.Sprintf("r%06d/", q.nextRun())
	ids, keys := make([]string, n), make([]string, n)
	for i, it := range plan.Items {
		r := runners[it.TraceLen]
		if r == nil {
			r = e.runnerFor(it.TraceLen)
			runners[it.TraceLen] = r
		}
		key := r.CacheKey(it.Spec)
		keys[i] = key
		local := &localItem{ctx: ctx, runner: r, key: key}
		if samples != nil {
			local.sample = func(s metrics.Sample) {
				samples[i] = append(samples[i], s)
				if progress != nil {
					progress(ItemEvent{Index: i, Sample: &s})
				}
			}
		}
		onLease := func(Task) {
			if samples != nil {
				samples[i] = nil
			}
			if progress != nil {
				progress(ItemEvent{Index: i, Started: true})
			}
		}
		onDone := func(o Outcome) {
			if o.Worker != localWorker {
				// A remote worker's result: replicate it into the store
				// even if the worker's own PUT failed (duplicates are
				// idempotent writes), and replay its time series.
				if o.Err == nil && o.Stats != nil {
					r.Store.Put(key, o.Stats)
				}
				if samples != nil {
					samples[i] = o.Samples
				}
				for k := range o.Samples {
					if progress != nil {
						progress(ItemEvent{Index: i, Sample: &o.Samples[k]})
					}
				}
			}
			res := plan.Result(i, key, o.Stats, o.Executed, o.Err)
			if o.Executed && samples != nil {
				res.Samples = samples[i]
			}
			resMu.Lock()
			if completed[i] {
				resMu.Unlock()
				return
			}
			completed[i] = true
			rs.Results[i] = res
			resMu.Unlock()
			if progress != nil {
				progress(ItemEvent{Index: i, Result: &rs.Results[i]})
			}
			// The run ends only after every item's Result event was
			// delivered, not merely decided: a caller may close its
			// event stream the moment RunCtx returns.
			if reported.Add(1) == int64(n) {
				close(done)
			}
		}
		ids[i] = prefix + strconv.Itoa(i)
		task := Task{ID: ids[i], TraceLen: it.TraceLen, SampleInterval: e.SampleInterval, Spec: it.Spec, local: local}
		if err := q.Add(task, onLease, onDone); err != nil {
			q.Remove(ids[:i+1])
			return nil, err
		}
	}

	select {
	case <-done:
	case <-ctx.Done():
		// Abandon the run: drop every queued/leased item so late
		// completions become duplicate no-ops, then fail what never
		// finished with the context's error.
		q.Remove(ids)
		resMu.Lock()
		for i := range completed {
			if !completed[i] {
				completed[i] = true
				rs.Results[i] = plan.Result(i, keys[i], nil, false, ctx.Err())
			}
		}
		resMu.Unlock()
	}
	plan.Finalize(rs)
	return rs, nil
}

// Err aggregates the set's per-item failures into one error (nil when the
// campaign fully succeeded).
func (rs *ResultSet) Err() error {
	var errs []error
	for _, r := range rs.Results {
		if r.Error != "" {
			errs = append(errs, fmt.Errorf("%s: %s", r.Label, r.Error))
		}
	}
	return errors.Join(errs...)
}
