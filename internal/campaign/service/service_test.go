package service

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/store"
	"clustersmt/internal/policy"
)

// startServer spins up a service on an httptest server and tears both down
// with the test.
func startServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	s := New(cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return srv
}

func decodeStatus(t *testing.T, resp *http.Response, wantCode int) *JobStatus {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("status code = %d, want %d", resp.StatusCode, wantCode)
	}
	st := &JobStatus{}
	if err := json.NewDecoder(resp.Body).Decode(st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

func submit(t *testing.T, srv *httptest.Server, manifest string) *JobStatus {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	return decodeStatus(t, resp, http.StatusAccepted)
}

func getStatus(t *testing.T, srv *httptest.Server, id string) *JobStatus {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	return decodeStatus(t, resp, http.StatusOK)
}

// waitFinished polls until the job reaches a terminal state.
func waitFinished(t *testing.T, srv *httptest.Server, id string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := getStatus(t, srv, id)
		if st.State.Finished() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return nil
}

func getResults(t *testing.T, srv *httptest.Server, id string) *campaign.ResultSet {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results code = %d", resp.StatusCode)
	}
	rs := &campaign.ResultSet{}
	if err := json.NewDecoder(resp.Body).Decode(rs); err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestSubmitStatusResults(t *testing.T) {
	srv := startServer(t, Config{Workers: 2})
	st := submit(t, srv, `{
		"name": "basic",
		"workloads": ["dh.ilp.2.1"],
		"schemes": ["icount", "cssp"],
		"trace_lens": [1000]
	}`)
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("initial state = %s", st.State)
	}
	if st.Total != 2 {
		t.Fatalf("total = %d, want 2", st.Total)
	}

	final := waitFinished(t, srv, st.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}
	if final.Executed != 2 || final.Done != 2 || final.Failed != 0 {
		t.Fatalf("tally = %+v", final)
	}

	// JSON results parse back into a ResultSet with matching tallies.
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results code = %d", resp.StatusCode)
	}
	rs := &campaign.ResultSet{}
	if err := json.NewDecoder(resp.Body).Decode(rs); err != nil {
		t.Fatal(err)
	}
	if rs.Campaign != "basic" || rs.Total != 2 || rs.Executed != 2 {
		t.Fatalf("result set = %+v", rs)
	}
	for _, r := range rs.Results {
		if r.IPC <= 0 {
			t.Errorf("%s: IPC %v", r.Label, r.IPC)
		}
	}

	// CSV results stream with the shared header and one row per item.
	resp, err = http.Get(srv.URL + "/v1/campaigns/" + st.ID + "/results?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rows, err := csv.NewReader(resp.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + 2 items
		t.Fatalf("csv rows = %d, want 3", len(rows))
	}
	if got, want := strings.Join(rows[0], ","), strings.Join(campaign.CSVHeader(), ","); got != want {
		t.Fatalf("csv header = %q, want %q", got, want)
	}

	// The per-item breakdown is exposed on demand.
	resp, err = http.Get(srv.URL + "/v1/campaigns/" + st.ID + "?items=1")
	if err != nil {
		t.Fatal(err)
	}
	withItems := decodeStatus(t, resp, http.StatusOK)
	if len(withItems.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(withItems.Items))
	}
	for _, it := range withItems.Items {
		if it.State != StateDone {
			t.Errorf("item %s state = %s", it.Label, it.State)
		}
	}
}

// TestConcurrentOverlapSharesStore is the dedup acceptance test: two
// concurrent submissions whose manifests overlap must execute each unique
// spec exactly once between them — the shared engine's store layer and
// singleflight tables answer for the overlap regardless of interleaving.
func TestConcurrentOverlapSharesStore(t *testing.T) {
	srv := startServer(t, Config{Workers: 2})
	a := submit(t, srv, `{
		"workloads": ["dh.ilp.2.1", "dh.ilp.2.2"],
		"schemes": ["icount"],
		"trace_lens": [2000]
	}`)
	b := submit(t, srv, `{
		"workloads": ["dh.ilp.2.2", "dh.ilp.2.3"],
		"schemes": ["icount"],
		"trace_lens": [2000]
	}`)
	fa := waitFinished(t, srv, a.ID)
	fb := waitFinished(t, srv, b.ID)
	if fa.State != StateDone || fb.State != StateDone {
		t.Fatalf("states = %s/%s (%s/%s)", fa.State, fb.State, fa.Error, fb.Error)
	}
	const uniqueSpecs = 3 // dh.ilp.2.{1,2,3} x icount; 2.2 overlaps
	if got := fa.Executed + fb.Executed; got != uniqueSpecs {
		t.Fatalf("combined executed = %d, want %d (a=%+v b=%+v)", got, uniqueSpecs, fa, fb)
	}
	if fa.Done != 2 || fb.Done != 2 {
		t.Fatalf("done = %d/%d, want 2/2", fa.Done, fb.Done)
	}
}

// TestResubmitAllStoreHits: a second identical submission must complete
// with zero simulations executed, answered entirely by the shared store —
// the service-side equivalent of a -resume re-run.
func TestResubmitAllStoreHits(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{Workers: 2, Store: st})
	manifest := `{
		"workloads": ["dh.mem.2.1"],
		"schemes": ["icount", "cssp"],
		"trace_lens": [1000]
	}`
	first := waitFinished(t, srv, submit(t, srv, manifest).ID)
	if first.State != StateDone || first.Executed != 2 {
		t.Fatalf("first run: %+v", first)
	}
	second := waitFinished(t, srv, submit(t, srv, manifest).ID)
	if second.State != StateDone {
		t.Fatalf("second run state = %s (%s)", second.State, second.Error)
	}
	if second.Executed != 0 || second.StoreHits != 2 {
		t.Fatalf("second run executed = %d, store hits = %d; want 0/2", second.Executed, second.StoreHits)
	}
}

// TestCancelStopsRunning: DELETE on a running job must stop it before it
// completes all items (cancellation propagates into the simulation loop).
func TestCancelStopsRunning(t *testing.T) {
	srv := startServer(t, Config{Workers: 1})
	st := submit(t, srv, `{
		"categories": ["dh"],
		"schemes": ["icount", "cssp", "cdprf"],
		"trace_lens": [60000]
	}`)

	// Wait until at least one item is actually running.
	deadline := time.Now().Add(time.Minute)
	for {
		cur := getStatus(t, srv, st.ID)
		if cur.State == StateRunning && cur.Running > 0 {
			break
		}
		if cur.State.Finished() {
			t.Fatalf("job finished before it could be canceled: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/campaigns/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	canceledAt := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeStatus(t, resp, http.StatusOK)

	final := waitFinished(t, srv, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("final state = %s, want %s", final.State, StateCanceled)
	}
	if final.Done == final.Total {
		t.Fatalf("all %d items completed despite cancellation", final.Total)
	}
	// In-flight simulations poll the context every few thousand cycles, so
	// the stop is prompt — not "after the current multi-second item".
	if d := time.Since(canceledAt); d > 10*time.Second {
		t.Fatalf("cancellation took %v", d)
	}

	// A finished job's results endpoint reports the partial set.
	resp, err = http.Get(srv.URL + "/v1/campaigns/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results after cancel = %d", resp.StatusCode)
	}
}

func TestValidationAndErrors(t *testing.T) {
	srv := startServer(t, Config{Workers: 1})

	// Invalid manifests are rejected before anything enqueues, with the
	// same strict validation the CLI applies.
	for name, body := range map[string]string{
		"no schemes":     `{"workloads": ["dh.ilp.2.1"]}`,
		"unknown scheme": `{"schemes": ["nope"]}`,
		"unknown field":  `{"schemes": ["icount"], "iq_size": [32]}`,
		"empty axis":     `{"schemes": ["icount"], "iq_sizes": []}`,
		"bad json":       `{`,
	} {
		resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: code = %d, want 422", name, resp.StatusCode)
		}
	}

	// Unknown job ids 404 on every per-job route.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/campaigns/zzz"},
		{http.MethodGet, "/v1/campaigns/zzz/results"},
		{http.MethodDelete, "/v1/campaigns/zzz"},
	} {
		req, err := http.NewRequest(probe.method, srv.URL+probe.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: code = %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}

	// Results for an unfinished job conflict rather than block.
	st := submit(t, srv, `{
		"workloads": ["dh.ilp.2.1"],
		"schemes": ["icount"],
		"trace_lens": [20000]
	}`)
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := getStatus(t, srv, st.ID); !got.State.Finished() {
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("unfinished results code = %d, want 409", resp.StatusCode)
		}
	}
	waitFinished(t, srv, st.ID)
}

// TestListOrder verifies the listing endpoint returns jobs in submission
// order with stable ids.
func TestListOrder(t *testing.T) {
	srv := startServer(t, Config{Workers: 1})
	manifest := `{"workloads": ["dh.ilp.2.1"], "schemes": ["icount"], "trace_lens": [1000]}`
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submit(t, srv, manifest).ID)
	}
	resp, err := http.Get(srv.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []*JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("list length = %d", len(list))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s", i, st.ID, ids[i])
		}
	}
	for _, id := range ids {
		waitFinished(t, srv, id)
	}
}

// TestSubmitQueueFull exercises the bounded queue: submissions beyond
// MaxQueue are rejected with 503, not queued unboundedly.
func TestSubmitQueueFull(t *testing.T) {
	// A full-pool campaign occupies the single job worker for far longer
	// than the test runs (Close cancels it on cleanup); the queue then
	// holds exactly one more job.
	srv := startServer(t, Config{Workers: 1, MaxQueue: 1})
	blocker := submit(t, srv, `{"schemes": ["icount"], "trace_lens": [60000]}`)
	deadline := time.Now().Add(time.Minute)
	for getStatus(t, srv, blocker.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	small := `{"workloads": ["dh.ilp.2.1"], "schemes": ["icount"], "trace_lens": [1000]}`
	submit(t, srv, small) // fills the queue's single slot

	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submission code = %d, want 503", resp.StatusCode)
	}
	var e map[string]string
	json.NewDecoder(resp.Body).Decode(&e)
	if !strings.Contains(e["error"], "queue full") {
		t.Errorf("rejection error = %q", e["error"])
	}
}

// TestFinishedJobEviction: beyond MaxFinished the oldest terminal jobs are
// evicted (404), bounding daemon memory, while newer ones survive.
func TestFinishedJobEviction(t *testing.T) {
	srv := startServer(t, Config{Workers: 1, MaxFinished: 1})
	manifest := `{"workloads": ["dh.ilp.2.1"], "schemes": ["icount"], "trace_lens": [1000]}`
	var ids []string
	for i := 0; i < 3; i++ {
		st := submit(t, srv, manifest)
		waitFinished(t, srv, st.ID)
		ids = append(ids, st.ID)
	}
	// Eviction runs when the worker finishes a later job, so after three
	// sequential jobs at cap 1, the first must be gone and the last alive.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/campaigns/" + ids[0])
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("oldest job %s never evicted (code %d)", ids[0], resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := getStatus(t, srv, ids[2]); st.State != StateDone {
		t.Fatalf("newest job state = %s", st.State)
	}
}

// TestWaitAPI covers the in-process Wait helper the CLI submit -wait path
// uses.
func TestWaitAPI(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	m, err := campaign.Parse([]byte(`{"workloads": ["dh.ilp.2.1"], "schemes": ["icount"], "trace_lens": [1000]}`))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	if _, err := s.Wait(ctx, "nope"); err == nil {
		t.Error("Wait on unknown id succeeded")
	}
}

// TestComponentsEndpoint: GET /v1/components serves the policy component
// registries and named schemes — everything a client needs to author a
// scheme_axes block without the binary at hand.
func TestComponentsEndpoint(t *testing.T) {
	srv := startServer(t, Config{Workers: 1})
	resp, err := http.Get(srv.URL + "/v1/components")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	got := policy.ComponentSet{}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := policy.Components()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("components document diverged:\n%+v\nvs\n%+v", got, want)
	}
	if len(got.Schemes) != 12 || len(got.Selectors) == 0 || len(got.IQ) == 0 || len(got.RF) == 0 {
		t.Errorf("incomplete listing: %d schemes, %d/%d/%d components",
			len(got.Schemes), len(got.Selectors), len(got.IQ), len(got.RF))
	}
}

// TestSubmitComposedScheme: the service accepts scheme_axes manifests and
// runs composed specs end-to-end, and a duplicate-expanding manifest is
// rejected at submission with a 422.
func TestSubmitComposedScheme(t *testing.T) {
	srv := startServer(t, Config{Workers: 2})
	st := submit(t, srv, `{
		"name": "composed",
		"workloads": ["ispec00.mix.2.1"],
		"trace_lens": [1000],
		"scheme_axes": {"selectors": ["stall"], "iq": ["cssp"], "rf": ["cdprf"]}
	}`)
	st = waitFinished(t, srv, st.ID)
	if st.State != StateDone || st.Done != 1 {
		t.Fatalf("composed job: state=%s done=%d error=%q", st.State, st.Done, st.Error)
	}
	rs := getResults(t, srv, st.ID)
	if len(rs.Results) != 1 || rs.Results[0].Scheme != "sel=stall,iq=cssp,rf=cdprf" {
		t.Fatalf("results = %+v", rs.Results)
	}
	if rs.Results[0].SchemeSpec != "sel=stall,iq=cssp,rf=cdprf" {
		t.Errorf("scheme_spec echo = %q", rs.Results[0].SchemeSpec)
	}

	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(`{
		"workloads": ["ispec00.mix.2.1"],
		"schemes": ["cdprf", "sel=icount,iq=cssp,rf=cdprf"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("duplicate-expanding manifest: status = %d, want 422", resp.StatusCode)
	}
}
