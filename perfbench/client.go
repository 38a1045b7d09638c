package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/service"
)

// client is the benchmark's one HTTP client of the daemon: a single
// connection, each request waiting for its reply before the next is sent.
type client struct {
	base string
	http *http.Client
	tr   *tracer
	acct *accounts
}

func newClient(base string, tr *tracer, acct *accounts) *client {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	if tr != nil {
		rt = clientTransport{rt, tr}
	}
	return &client{base: base, http: &http.Client{Transport: rt}, tr: tr, acct: acct}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// sseEvent is the part of a daemon event frame the benchmark reads.
type sseEvent struct {
	Type  string        `json:"type"`
	Index int           `json:"index"`
	State service.State `json:"state"`
}

// job is one finished job as the client saw it.
type job struct {
	id        string
	state     service.State // of the terminal "state" frame
	rs        campaign.ResultSet
	frames    map[string]int // SSE frames by type
	results   map[int]int    // result frames per item index
	running   map[int]time.Duration
	stateSeen int
	bodyBytes int // of the results response
}

// do sends one request and returns the response, counting it.
func (c *client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	c.acct.outcome("http_requests", err)
	return resp, err
}

// runJob submits a manifest, follows the job's event stream to its
// terminal state frame, and fetches the results: one daemon job.
func (c *client) runJob(ctx context.Context, manifest []byte) (*job, error) {
	j, err := c.runJobSteps(ctx, manifest)
	c.acct.outcome("jobs", err)
	if err == nil {
		c.acct.add("campaign_items", j.rs.Total, j.rs.Failed)
	}
	return j, err
}

func (c *client) runJobSteps(ctx context.Context, manifest []byte) (*job, error) {
	j := &job{frames: map[string]int{}, results: map[int]int{}, running: map[int]time.Duration{}}
	t0 := time.Now()
	resp, err := c.do(ctx, http.MethodPost, "/v1/campaigns", manifest)
	if err != nil {
		return nil, err
	}
	var st service.JobStatus
	err = decodeBody(resp, http.StatusAccepted, &st)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	j.id = st.ID
	t1 := time.Now()
	c.tr.record("service.submit", t0, t1)

	resp, err = c.do(ctx, http.MethodGet, "/v1/campaigns/"+j.id+"/events", nil)
	if err != nil {
		return nil, err
	}
	err = c.follow(resp, j, t0, t1)
	if err != nil {
		return nil, fmt.Errorf("events of %s: %w", j.id, err)
	}

	t2 := time.Now()
	resp, err = c.do(ctx, http.MethodGet, "/v1/campaigns/"+j.id+"/results", nil)
	if err != nil {
		return nil, err
	}
	body, err := readBody(resp, http.StatusOK)
	if err != nil {
		return nil, fmt.Errorf("results of %s: %w", j.id, err)
	}
	j.bodyBytes = len(body)
	if err := json.Unmarshal(body, &j.rs); err != nil {
		return nil, fmt.Errorf("results of %s: %w", j.id, err)
	}
	c.tr.record("service.results", t2, time.Now())
	return j, nil
}

// follow reads a job's SSE stream to its end, tallying frames. The daemon
// closes the stream after the terminal state frame.
func (c *client) follow(resp *http.Response, j *job, submitted, streamFrom time.Time) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var typ, data string
	first := true
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && typ != "":
			now := time.Now()
			if first {
				c.tr.record("service.first_event", streamFrom, now)
				first = false
			}
			var ev sseEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return fmt.Errorf("frame %q: %w", data, err)
			}
			if j.stateSeen > 0 {
				return fmt.Errorf("%s frame after the terminal state frame", typ)
			}
			j.frames[typ]++
			switch {
			case typ == "state":
				j.stateSeen++
				j.state = ev.State
				c.tr.record("service.terminal", submitted, now)
			case typ == "item" && ev.State == service.StateRunning:
				if _, ok := j.running[ev.Index]; !ok {
					j.running[ev.Index] = now.Sub(submitted)
				}
			case typ == "item" && (ev.State == service.StateDone || ev.State == service.StateFailed):
				j.results[ev.Index]++
			}
			typ, data = "", ""
		}
	}
	return sc.Err()
}

// check tests a finished job: it ended done, with one result frame per
// item and exactly one terminal state frame.
func (j *job) check() error {
	switch {
	case j.state != service.StateDone:
		return fmt.Errorf("job %s ended %q", j.id, j.state)
	case j.stateSeen != 1:
		return fmt.Errorf("job %s: %d terminal state frames", j.id, j.stateSeen)
	case j.rs.Failed != 0:
		return fmt.Errorf("job %s: %d failed items", j.id, j.rs.Failed)
	case len(j.results) != j.rs.Total:
		return fmt.Errorf("job %s: result frames for %d of %d items", j.id, len(j.results), j.rs.Total)
	}
	for i, n := range j.results {
		if n != 1 || i < 0 || i >= j.rs.Total {
			return fmt.Errorf("job %s: item %d has %d result frames", j.id, i, n)
		}
	}
	return checkResultSet(&j.rs)
}

func readBody(resp *http.Response, want int) ([]byte, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func decodeBody(resp *http.Response, want int, v any) error {
	b, err := readBody(resp, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// serviceLayers fills the daemon metrics the client measured in the
// traced phase: latency medians, the results body size and frames per job.
func serviceLayers(l *layerRun, jobs []*job) {
	ms := func(layer string) float64 { return median(l.tr.durations(layer)) * 1e3 }
	o := l.out
	o["service.submit_ms"] = ms("service.submit")
	o["service.first_event_ms"] = ms("service.first_event")
	o["service.terminal_ms"] = ms("service.terminal")
	o["service.results_ms"] = ms("service.results")
	var kb, frames float64
	for _, j := range jobs {
		kb += float64(j.bodyBytes) / 1e3
		for _, n := range j.frames {
			frames += float64(n)
		}
	}
	o["service.results_kb"] = kb / float64(len(jobs))
	o["service.sse_frames"] = frames / float64(len(jobs))
}
