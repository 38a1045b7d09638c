package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req; Parent is the request's own span (0 for the request span and
// for calls made outside any request).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while recording is on. Every method is
// safe on a nil tracer and while recording is off, so the untraced path
// pays one atomic load per wrapped call. The workloads are closed loops
// with one request in flight, so a call into a layer belongs to the
// request that is current when it starts.
type tracer struct {
	workload string
	origin   time.Time
	on       atomic.Bool
	nextID   atomic.Int64
	req      atomic.Int64
	reqSpan  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// begin opens a span on layer under the current request; calling the
// returned function closes it.
func (t *tracer) begin(layer string) func() {
	if !t.recording() {
		return func() {}
	}
	start := time.Now()
	return func() { t.record(layer, start, time.Now()) }
}

// record stores a finished span under the current request.
func (t *tracer) record(layer string, start, end time.Time) {
	if !t.recording() {
		return
	}
	s := span{
		ID:     t.nextID.Add(1),
		Parent: t.reqSpan.Load(),
		Req:    t.req.Load(),
		Layer:  layer,
		Start:  start.Sub(t.origin).Nanoseconds(),
		End:    end.Sub(t.origin).Nanoseconds(),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginRequest marks request id as current and returns the function that
// closes its span.
func (t *tracer) beginRequest(id int64) func() {
	if !t.recording() {
		return func() {}
	}
	sid := t.nextID.Add(1)
	t.req.Store(id)
	t.reqSpan.Store(sid)
	start := time.Now()
	return func() {
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, span{
			ID: sid, Req: id, Layer: "request",
			Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
		})
		t.mu.Unlock()
		t.reqSpan.Store(0)
	}
}

// durations returns the lengths in seconds of every span on layer.
func (t *tracer) durations(layer string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// sum adds xs up.
func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// writeSpans writes every span as one JSON line, with the workload name.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{t.workload, s}); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStore times every call into the ResultStore it wraps.
type timedStore struct {
	inner experiments.ResultStore
	tr    *tracer
}

func (s timedStore) Get(key string) (*metrics.Stats, bool, error) {
	defer s.tr.begin("store.get")()
	return s.inner.Get(key)
}

func (s timedStore) Put(key string, st *metrics.Stats) error {
	defer s.tr.begin("store.put")()
	return s.inner.Put(key, st)
}

// timedTransport times every HTTP exchange through it, from sending the
// request to reading the last byte of the response, and counts empty fleet
// leases. Responses are read in full before they are handed on, so it
// suits the small bodies of the fleet and store routes; the client's event
// stream is timed at headers only (see clientTransport).
type timedTransport struct {
	inner       http.RoundTripper
	tr          *tracer
	emptyLeases *atomic.Int64
}

func (t timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.tr.recording() {
		return t.inner.RoundTrip(r)
	}
	start := time.Now()
	resp, err := t.inner.RoundTrip(r)
	if err != nil {
		return resp, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(b))
	layer := workerLayer(r)
	t.tr.record(layer, start, time.Now())
	if layer == "fleet.lease" && resp.StatusCode == http.StatusOK {
		var lr struct {
			Tasks []json.RawMessage `json:"tasks"`
		}
		if json.Unmarshal(b, &lr) == nil && len(lr.Tasks) == 0 {
			t.emptyLeases.Add(1)
		}
	}
	return resp, nil
}

// workerLayer names the fleet route a worker request goes to.
func workerLayer(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/store/") && r.Method == http.MethodGet:
		return "fleet.store_get"
	case strings.HasPrefix(p, "/v1/store/"):
		return "fleet.store_put"
	case strings.HasSuffix(p, "/lease"):
		return "fleet.lease"
	case strings.HasSuffix(p, "/complete"):
		return "fleet.complete"
	case strings.HasSuffix(p, "/heartbeat"):
		return "fleet.heartbeat"
	default:
		return "fleet.register"
	}
}

// clientTransport times the benchmark client's HTTP exchanges to response
// headers (the event stream stays open long after its headers arrive).
type clientTransport struct {
	inner http.RoundTripper
	tr    *tracer
}

func (t clientTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	defer t.tr.begin("http." + r.Method)()
	return t.inner.RoundTrip(r)
}
