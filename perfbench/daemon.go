package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/service"
	"clustersmt/internal/campaign/store"
	"clustersmt/internal/experiments"
)

// shortTraceLen is the trace length of the daemon and fleet workloads. The
// daemon-warm timed phase simulates nothing, and fleet-cold wants dispatch,
// not simulation, to dominate a job.
const shortTraceLen = 2000

// daemonWarm drives service.Service in its default local mode over HTTP,
// on a disk store that already holds every item: a job is pure HTTP/JSON,
// SSE, manifest expansion, keying, store reads and result assembly.
type daemonWarm struct {
	env
	manifests [][]byte
	want      []*campaign.ResultSet // rows the engine produced filling the store
	svc       *service.Service
	srv       *httptest.Server
	cl        *client
	bad       error
	jobs      []*job // traced phase only
}

func newDaemonWarm(e env) bench { return &daemonWarm{env: e} }

func (d *daemonWarm) roundLen() int { return len(d.manifests) }

// setup draws one campaign per category (three workloads × one scheme
// pair × two IQ sizes, with baselines: 24 items), runs them through a
// campaign.Engine onto a fresh disk store, and starts the daemon on that
// store behind a loopback server.
func (d *daemonWarm) setup(ctx context.Context) error {
	rng := newRNG(d.seed)
	sp := schemePairs()
	perm := rng.Perm(len(sp))
	for k, t := range drawTriples(rng, 1) {
		d.manifests = append(d.manifests,
			campaignManifest("warm-"+t.category, t.names(), sp[perm[k]][:], coldIQSizes, shortTraceLen))
	}
	st, err := store.Open(filepath.Join(d.dir, "store"))
	if err != nil {
		return err
	}
	fill := &campaign.Engine{Store: st, Resume: true, Workers: simWorkers}
	for _, b := range d.manifests {
		m, err := campaign.Parse(b)
		if err != nil {
			return err
		}
		rs, err := fill.RunCtx(ctx, m, nil)
		if err != nil {
			return err
		}
		if err := checkResultSet(rs); err != nil {
			return err
		}
		d.want = append(d.want, rs)
	}
	var rs experiments.ResultStore = st
	if d.tr != nil {
		rs = timedStore{st, d.tr}
	}
	d.svc = service.New(service.Config{Store: rs})
	d.srv = httptest.NewServer(d.svc.Handler())
	d.cl = newClient(d.srv.URL, d.tr, d.acct)
	return nil
}

func (d *daemonWarm) close() {
	if d.cl != nil {
		d.cl.close()
	}
	if d.svc != nil {
		d.svc.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
}

func (d *daemonWarm) request(ctx context.Context, i int) (int, error) {
	k := i % len(d.manifests)
	j, err := d.cl.runJob(ctx, d.manifests[k])
	if err != nil {
		return 0, err
	}
	if d.bad == nil {
		d.bad = d.checkJob(j, k)
	}
	if d.tr.recording() {
		d.jobs = append(d.jobs, j)
	}
	return len(j.rs.Results), nil
}

// checkJob tests that a job recalled every item and returned the rows the
// engine produced when it filled the store.
func (d *daemonWarm) checkJob(j *job, k int) error {
	if err := j.check(); err != nil {
		return err
	}
	if j.rs.Executed != 0 || j.rs.StoreHits != j.rs.Total {
		return fmt.Errorf("job %s executed %d and recalled %d of %d items; all should be recalled",
			j.id, j.rs.Executed, j.rs.StoreHits, j.rs.Total)
	}
	if !sameRows(d.want[k].Results, j.rs.Results) {
		return fmt.Errorf("job %s: rows over HTTP differ from the rows that filled the store", j.id)
	}
	return nil
}

func (d *daemonWarm) verify(context.Context) error { return d.bad }

func (d *daemonWarm) layers(l *layerRun) {
	manifestLayers(l, d.manifests)
	sets := make([]*campaign.ResultSet, len(d.jobs))
	for i, j := range d.jobs {
		sets[i] = &j.rs
	}
	storeLayers(l, sets, []string{filepath.Join(d.dir, "store")})
	serviceLayers(l, d.jobs)
}
