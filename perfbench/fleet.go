package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/fleet"
	"clustersmt/internal/campaign/service"
	"clustersmt/internal/campaign/store"
	"clustersmt/internal/experiments"
)

// fleetIQStep separates the issue-queue sizes of successive fleet-cold
// rounds, which is what keeps every job of a run distinct.
const fleetIQStep = 8

// fleetThinkSpan is what the client's pauses before the jobs of a round
// spread over: the n pauses of a round are a seeded order of 0, 1, …, n-1
// steps of fleetThinkSpan/n, which spreads submissions evenly over one
// 250 ms worker idle-poll interval. Without the pauses each job is
// submitted right after the previous one ends, job latency locks onto the
// workers' poll phase, and its median swings by a third between runs.
const fleetThinkSpan = 250 * time.Millisecond

// fleetPerCategory is how many triples fleet-cold draws per category: a
// round is twenty jobs.
const fleetPerCategory = 2

// fleetWarmupIQ is the issue-queue size of the set-up job, below every
// timed round's.
const fleetWarmupIQ = 24

// fleetCold drives the daemon in fleet mode, configured as
// `expdriver serve -fleet` configures it, with two in-process workers of
// one simulation slot each pulling work over loopback HTTP.
type fleetCold struct {
	env
	triples []triple
	schemes []string // one per triple
	pauses  []int    // think-time steps, one per request of a round
	coord   *fleet.Coordinator
	svc     *service.Service
	srv     *httptest.Server
	cl      *client
	stop    context.CancelFunc
	wg      sync.WaitGroup
	empty   atomic.Int64 // empty leases seen by the worker transport
	runs    []fleetRun
	bad     error
	jobs    []*job // traced phase only
}

// fleetRun is one finished fleet job and the manifest it ran.
type fleetRun struct {
	manifest []byte
	rs       campaign.ResultSet
}

func newFleetCold(e env) bench { return &fleetCold{env: e} }

func (f *fleetCold) roundLen() int { return len(f.triples) }

// manifest returns request i's campaign: one triple's three workloads
// under the triple's scheme, at the round's issue-queue size, with
// baselines — nine items of short traces.
func (f *fleetCold) manifest(i int) []byte {
	k, round := i%len(f.triples), i/len(f.triples)
	t := f.triples[k]
	iq := coldIQSizes[0] + fleetIQStep*round
	return campaignManifest(fmt.Sprintf("fleet-%s-%d-iq%d", t.category, k, iq), t.names(), []string{f.schemes[k]}, []int{iq}, shortTraceLen)
}

// setup starts the coordinator, the daemon and its loopback server, and
// two workers, and waits until both have registered.
func (f *fleetCold) setup(ctx context.Context) error {
	rng := newRNG(f.seed)
	f.triples = drawTriples(rng, fleetPerCategory)
	for _, k := range rng.Perm(len(f.triples)) {
		f.schemes = append(f.schemes, schemes[k%len(schemes)])
	}
	f.pauses = rng.Perm(len(f.triples))
	st, err := store.Open(filepath.Join(f.dir, "store"))
	if err != nil {
		return err
	}
	var rs experiments.ResultStore = st
	if f.tr != nil {
		rs = timedStore{st, f.tr}
	}
	// The coordinator settings of `expdriver serve -fleet` at its defaults.
	f.coord = fleet.NewCoordinator(fleet.Config{Store: rs, LeaseTTL: 10 * time.Second, MaxAttempts: 4})
	f.svc = service.New(service.Config{Store: rs, Fleet: f.coord})
	f.srv = httptest.NewServer(f.svc.Handler())
	f.cl = newClient(f.srv.URL, f.tr, f.acct)

	wctx, stop := context.WithCancel(context.Background())
	f.stop = stop
	for w := 0; w < simWorkers; w++ {
		var rt http.RoundTripper = &http.Transport{}
		if f.tr != nil {
			rt = timedTransport{rt, f.tr, &f.empty}
		}
		worker, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: f.srv.URL,
			Name:        fmt.Sprintf("bench-%d", w),
			Parallel:    1,
			Client:      &http.Client{Transport: rt},
		})
		if err != nil {
			return err
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			worker.Run(wctx)
		}()
	}
	for len(f.coord.Status().Workers) < simWorkers {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	// One warm-up job, at an issue-queue size no timed round uses, so
	// connections are open and both workers are polling when timing
	// starts. Server start and registration alone take a few milliseconds
	// whose run-to-run jitter is as large as the figure.
	j, err := f.cl.runJobSteps(ctx, warmupManifest([]int{fleetWarmupIQ}, shortTraceLen))
	if err != nil {
		return err
	}
	return j.check()
}

// stopWorkers cancels the workers and waits for them to exit.
func (f *fleetCold) stopWorkers() {
	if f.stop != nil {
		f.stop()
		f.wg.Wait()
		f.stop = nil
	}
}

func (f *fleetCold) close() {
	f.stopWorkers()
	if f.cl != nil {
		f.cl.close()
	}
	if f.svc != nil {
		f.svc.Close()
	}
	if f.srv != nil {
		f.srv.Close()
	}
}

// sleepBound marks fleet-cold's wall time as mostly sleeps: think pauses
// and the workers' 250 ms idle polls.
func (f *fleetCold) sleepBound() {}

func (f *fleetCold) think(i int) time.Duration {
	return time.Duration(f.pauses[i%len(f.pauses)]) * fleetThinkSpan / time.Duration(len(f.pauses))
}

func (f *fleetCold) request(ctx context.Context, i int) (int, error) {
	b := f.manifest(i)
	j, err := f.cl.runJob(ctx, b)
	if err != nil {
		return 0, err
	}
	if err := j.check(); err != nil && f.bad == nil {
		f.bad = err
	}
	f.runs = append(f.runs, fleetRun{manifest: b, rs: j.rs})
	if f.tr.recording() {
		f.jobs = append(f.jobs, j)
	}
	return len(j.rs.Results), nil
}

// verify checks that nothing poisoned, then runs every manifest of the run
// through a local campaign.Engine on a fresh store: the fleet's documented
// equivalence is the same key, IPC, per-thread IPC and fairness row for
// row.
func (f *fleetCold) verify(ctx context.Context) error {
	if f.bad != nil {
		return f.bad
	}
	if p := f.coord.Status().Queue.Poisoned; p != 0 {
		return fmt.Errorf("fleet poisoned %d items", p)
	}
	f.stopWorkers()
	st, err := store.Open(filepath.Join(f.dir, "local"))
	if err != nil {
		return err
	}
	local := &campaign.Engine{Store: st, Resume: true, Workers: simWorkers}
	for _, r := range f.runs {
		m, err := campaign.Parse(r.manifest)
		if err != nil {
			return err
		}
		rs, err := local.RunCtx(ctx, m, nil)
		if err != nil {
			return err
		}
		if err := sameFleetRows(rs.Results, r.rs.Results); err != nil {
			return fmt.Errorf("campaign %s: %w", m.Name, err)
		}
	}
	return nil
}

func sameFleetRows(local, remote []campaign.Result) error {
	if len(local) != len(remote) {
		return fmt.Errorf("%d local rows, %d fleet rows", len(local), len(remote))
	}
	for i, a := range local {
		b := remote[i]
		if a.Key != b.Key || a.IPC != b.IPC || a.Fairness != b.Fairness || !reflect.DeepEqual(a.ThreadIPC, b.ThreadIPC) {
			return fmt.Errorf("row %s: local (key %.12s, ipc %v, thread ipc %v, fairness %v) != fleet (key %.12s, ipc %v, thread ipc %v, fairness %v)",
				a.Label, a.Key, a.IPC, a.ThreadIPC, a.Fairness, b.Key, b.IPC, b.ThreadIPC, b.Fairness)
		}
	}
	return nil
}

func (f *fleetCold) layers(l *layerRun) {
	n := float64(len(f.jobs))
	if n == 0 {
		return
	}
	var manifests [][]byte
	var wait []float64
	for _, j := range f.jobs {
		for _, d := range j.running {
			wait = append(wait, d.Seconds())
		}
	}
	for _, r := range f.runs[len(f.runs)-len(f.jobs):] {
		manifests = append(manifests, r.manifest)
	}
	manifestLayers(l, manifests)
	sets := make([]*campaign.ResultSet, len(f.jobs))
	for i, j := range f.jobs {
		sets[i] = &j.rs
	}
	storeLayers(l, sets, []string{filepath.Join(f.dir, "store")})
	serviceLayers(l, f.jobs)
	ms := func(layer string) float64 { return median(l.tr.durations(layer)) * 1e3 }
	o := l.out
	o["fleet.lease_ms"] = ms("fleet.lease")
	o["fleet.complete_ms"] = ms("fleet.complete")
	o["fleet.store_get_ms"] = ms("fleet.store_get")
	o["fleet.store_put_ms"] = ms("fleet.store_put")
	o["fleet.leases"] = float64(len(l.tr.durations("fleet.lease"))) / n
	o["fleet.empty_leases"] = float64(f.empty.Load()) / n
	o["fleet.item_wait_s"] = median(wait)
	q := f.coord.Status().Queue
	o["fleet.requeues"] = float64(q.Requeues)
	o["fleet.duplicates"] = float64(q.Duplicates)
}
