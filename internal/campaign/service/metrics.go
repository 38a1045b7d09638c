package service

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"clustersmt/internal/campaign"
)

// svcMetrics is the daemon's process-lifetime instrumentation, exposed in
// Prometheus text form by GET /metrics. Counters are updated from engine
// progress callbacks (hot path: one atomic add per event); the cycles/s
// gauge is derived at scrape time from the cycle counter's delta since the
// previous scrape.
type svcMetrics struct {
	executed  atomic.Int64 // fresh simulations completed
	storeHits atomic.Int64 // items answered by the store / singleflight
	failed    atomic.Int64 // items that completed with an error
	cycles    atomic.Int64 // simulated cycles, summed from sample windows

	mu         sync.Mutex
	lastScrape time.Time
	lastCycles int64
}

// onItem folds one engine progress event into the counters.
func (m *svcMetrics) onItem(ev campaign.ItemEvent) {
	switch {
	case ev.Sample != nil:
		m.cycles.Add(ev.Sample.Window)
	case ev.Result != nil:
		switch {
		case ev.Result.Error != "":
			m.failed.Add(1)
		case ev.Result.Cached:
			m.storeHits.Add(1)
		default:
			m.executed.Add(1)
		}
	}
}

// cyclesPerSecond returns the mean simulated-cycle rate since the previous
// scrape (0 on the first scrape, when there is no interval to rate over).
func (m *svcMetrics) cyclesPerSecond(now time.Time) float64 {
	cur := m.cycles.Load()
	m.mu.Lock()
	defer m.mu.Unlock()
	var rate float64
	if !m.lastScrape.IsZero() {
		if dt := now.Sub(m.lastScrape).Seconds(); dt > 0 {
			rate = float64(cur-m.lastCycles) / dt
		}
	}
	m.lastScrape = now
	m.lastCycles = cur
	return rate
}

// handleMetrics serves the daemon's operational metrics in the Prometheus
// text exposition format (version 0.0.4): jobs by state, queue depth,
// leased items, lifetime item counters, and simulation throughput.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	states := s.countLocked()
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)

	fmt.Fprintf(w, "# HELP clustersmt_jobs Campaign jobs currently retained, by lifecycle state.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_jobs gauge\n")
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "clustersmt_jobs{state=%q} %d\n", st, states[st])
	}
	fmt.Fprintf(w, "# HELP clustersmt_job_queue_depth Jobs admitted but with no item leased yet.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_job_queue_depth gauge\n")
	fmt.Fprintf(w, "clustersmt_job_queue_depth %d\n", states[StateQueued])
	fmt.Fprintf(w, "# HELP clustersmt_sims_inflight Items currently leased, to the in-process loops or to fleet workers.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_sims_inflight gauge\n")
	fmt.Fprintf(w, "clustersmt_sims_inflight %d\n", s.eng.Queue().Stats().Leased)
	fmt.Fprintf(w, "# HELP clustersmt_sims_executed_total Fresh simulations completed since the daemon started.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_sims_executed_total counter\n")
	fmt.Fprintf(w, "clustersmt_sims_executed_total %d\n", s.met.executed.Load())
	fmt.Fprintf(w, "# HELP clustersmt_store_hits_total Items answered by the result store or another job's in-flight execution.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_store_hits_total counter\n")
	fmt.Fprintf(w, "clustersmt_store_hits_total %d\n", s.met.storeHits.Load())
	fmt.Fprintf(w, "# HELP clustersmt_items_failed_total Items that completed with an error.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_items_failed_total counter\n")
	fmt.Fprintf(w, "clustersmt_items_failed_total %d\n", s.met.failed.Load())
	fmt.Fprintf(w, "# HELP clustersmt_sim_cycles_total Simulated machine cycles observed through sampling windows.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_sim_cycles_total counter\n")
	fmt.Fprintf(w, "clustersmt_sim_cycles_total %d\n", s.met.cycles.Load())
	fmt.Fprintf(w, "# HELP clustersmt_sim_cycles_per_second Mean simulated-cycle rate since the previous scrape.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_sim_cycles_per_second gauge\n")
	fmt.Fprintf(w, "clustersmt_sim_cycles_per_second %g\n", s.met.cyclesPerSecond(time.Now()))
}
