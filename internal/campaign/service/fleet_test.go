package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"clustersmt/internal/campaign/fleet"
	"clustersmt/internal/experiments"
)

// startFleetWorkers joins n in-process workers to the coordinator behind
// srv (the service handler mounts the fleet routes) and tears them down
// with the test.
func startFleetWorkers(t *testing.T, srv *httptest.Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: srv.URL,
			Name:        fmt.Sprintf("w%d", i),
			Parallel:    2,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			w.Run(ctx)
		}()
		t.Cleanup(func() { cancel(); <-done })
	}
}

// TestFleetServiceMatchesLocal is the acceptance drill for coordinator
// mode: the iqsweep example campaign submitted to a fleet-mode daemon with
// three workers must produce exactly the result set a single-process
// daemon produces, the executed-simulation metric must count each item
// once despite the distributed retry machinery, and a resubmission through
// the fleet must execute zero simulations.
func TestFleetServiceMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker integration test")
	}
	manifest, err := os.ReadFile("../../../examples/campaign/iqsweep.json")
	if err != nil {
		t.Fatal(err)
	}

	shared := experiments.NewMemStore()
	coord := fleet.NewCoordinator(fleet.Config{
		Store:        shared,
		LeaseTTL:     5 * time.Second,
		PollInterval: 20 * time.Millisecond,
	})
	fleetSrv := startServer(t, Config{Workers: 4, Store: shared, Fleet: coord, SampleInterval: -1})
	startFleetWorkers(t, fleetSrv, 3)

	st := submit(t, fleetSrv, string(manifest))
	final := waitFinished(t, fleetSrv, st.ID)
	if final.State != StateDone {
		t.Fatalf("fleet job state = %s (%s)", final.State, final.Error)
	}
	if final.Failed != 0 {
		t.Fatalf("fleet job failed %d items", final.Failed)
	}
	rsFleet := getResults(t, fleetSrv, st.ID)

	// The reference: the same manifest on a plain single-process daemon.
	localSrv := startServer(t, Config{Workers: 4, SampleInterval: -1})
	stLocal := submit(t, localSrv, string(manifest))
	waitFinished(t, localSrv, stLocal.ID)
	rsLocal := getResults(t, localSrv, stLocal.ID)

	if len(rsFleet.Results) != len(rsLocal.Results) {
		t.Fatalf("fleet %d rows, local %d rows", len(rsFleet.Results), len(rsLocal.Results))
	}
	for i := range rsLocal.Results {
		if !reflect.DeepEqual(rsFleet.Results[i], rsLocal.Results[i]) {
			t.Errorf("row %d diverges:\nfleet: %+v\nlocal: %+v", i, rsFleet.Results[i], rsLocal.Results[i])
		}
	}
	if rsFleet.Executed != rsLocal.Executed || rsFleet.StoreHits != rsLocal.StoreHits {
		t.Fatalf("tally diverges: fleet executed=%d hits=%d, local executed=%d hits=%d",
			rsFleet.Executed, rsFleet.StoreHits, rsLocal.Executed, rsLocal.StoreHits)
	}

	// Every item counted exactly once in the daemon's executed counter —
	// leases, retries and duplicate completion reports must not inflate it.
	m := scrape(t, fleetSrv.URL)
	if got := m["clustersmt_sims_executed_total"]; got != float64(rsFleet.Total) {
		t.Errorf("executed_total = %v, want %d", got, rsFleet.Total)
	}

	// Resubmission through the fleet: all store hits, zero executions, and
	// the executed counter does not move.
	st2 := submit(t, fleetSrv, string(manifest))
	final2 := waitFinished(t, fleetSrv, st2.ID)
	if final2.State != StateDone {
		t.Fatalf("resubmitted job state = %s (%s)", final2.State, final2.Error)
	}
	rs2 := getResults(t, fleetSrv, st2.ID)
	if rs2.Executed != 0 || rs2.StoreHits != rs2.Total {
		t.Fatalf("resubmission executed %d, hits %d of %d — fleet store dedup broken",
			rs2.Executed, rs2.StoreHits, rs2.Total)
	}
	m = scrape(t, fleetSrv.URL)
	if got := m["clustersmt_sims_executed_total"]; got != float64(rsFleet.Total) {
		t.Errorf("executed_total after resubmit = %v, want %d (unchanged)", got, rsFleet.Total)
	}
	if got := m["clustersmt_store_hits_total"]; got != float64(rs2.Total) {
		t.Errorf("store_hits_total = %v, want %d", got, rs2.Total)
	}
}

// TestFleetSamplesMatchLocal: time series survive the fleet. A fleet-mode
// job with sampling on streams SSE sample frames, and every executed
// item's Result.Samples equals what a single-process daemon records for
// the same item.
func TestFleetSamplesMatchLocal(t *testing.T) {
	manifest := `{
		"workloads": ["dh.ilp.2.1"],
		"schemes": ["icount", "cssp"],
		"trace_lens": [20000]
	}`
	coord := fleet.NewCoordinator(fleet.Config{PollInterval: 20 * time.Millisecond})
	fleetSrv := startServer(t, Config{Fleet: coord, SampleInterval: 1024})
	startFleetWorkers(t, fleetSrv, 2)

	st := submit(t, fleetSrv, manifest)
	samples := 0
	for _, e := range readSSE(t, openEvents(t, fleetSrv, st.ID)) {
		if e.Type == "sample" {
			samples++
		}
	}
	if samples == 0 {
		t.Fatal("fleet job streamed no sample frames")
	}
	if final := waitFinished(t, fleetSrv, st.ID); final.State != StateDone {
		t.Fatalf("fleet job state = %s (%s)", final.State, final.Error)
	}
	rsFleet := getResults(t, fleetSrv, st.ID)

	localSrv := startServer(t, Config{Workers: 2, SampleInterval: 1024})
	stLocal := submit(t, localSrv, manifest)
	waitFinished(t, localSrv, stLocal.ID)
	rsLocal := getResults(t, localSrv, stLocal.ID)

	if rsFleet.Executed != rsFleet.Total || rsLocal.Executed != rsLocal.Total {
		t.Fatalf("executed fleet %d/%d, local %d/%d; want every item simulated",
			rsFleet.Executed, rsFleet.Total, rsLocal.Executed, rsLocal.Total)
	}
	total := 0
	for i := range rsLocal.Results {
		got, want := rsFleet.Results[i].Samples, rsLocal.Results[i].Samples
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("item %d: fleet %d samples, local %d; series differ", i, len(got), len(want))
		}
		total += len(got)
	}
	if samples != total {
		t.Errorf("streamed %d sample frames, results carry %d samples", samples, total)
	}
}
