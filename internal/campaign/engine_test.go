package campaign

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersmt/internal/metrics"
)

func parseManifest(t *testing.T, body string) *Manifest {
	t.Helper()
	m, err := Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestQueueForgetsFinishedTasks: terminal tasks leave the queue, so a
// long-running engine's lease scans cover live work only, while the
// Done counter still tallies every item ever completed.
func TestQueueForgetsFinishedTasks(t *testing.T) {
	eng := &Engine{Resume: true, Workers: 2}
	const campaigns = 3
	total := 0
	for k := 0; k < campaigns; k++ {
		rs, err := eng.RunCtx(context.Background(), parseManifest(t, `{
			"workloads": ["dh.ilp.2.1", "dh.ilp.2.2"],
			"schemes": ["icount", "cssp"],
			"trace_lens": [1000]
		}`), nil)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Failed != 0 {
			t.Fatalf("campaign %d failed %d items", k, rs.Failed)
		}
		total += rs.Total
	}
	q := eng.Queue()
	q.mu.Lock()
	live, pending := len(q.tasks), len(q.pending)
	q.mu.Unlock()
	if live != 0 || pending != 0 {
		t.Fatalf("queue holds %d tasks (%d pending) after %d finished campaigns", live, pending, campaigns)
	}
	if st := q.Stats(); st.Done != total || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("stats = %+v, want Done = %d and nothing live", st, total)
	}
}

// TestLocalItemPoisons: an item that fails every in-process attempt
// retries with backoff, poisons after the queue's attempt cap, and its
// campaign still finishes — failed, with the poison diagnosis on the row.
func TestLocalItemPoisons(t *testing.T) {
	const maxAttempts = 3
	eng := NewEngine(NewQueue(maxAttempts, time.Millisecond, 2*time.Millisecond, nil))
	eng.Resume, eng.Workers = true, 1
	eng.testExecErr = func(Task) error { return errors.New("simulated hardware fault") }

	var mu sync.Mutex
	leases := 0
	rs, err := eng.RunCtx(context.Background(), parseManifest(t, `{
		"workloads": ["dh.ilp.2.1"],
		"schemes": ["icount"],
		"trace_lens": [1000]
	}`), func(ev ItemEvent) {
		if ev.Started {
			mu.Lock()
			leases++
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Total != 1 || rs.Failed != 1 || rs.Err() == nil {
		t.Fatalf("tally %d/%d failed, want the campaign to finish failed", rs.Failed, rs.Total)
	}
	if msg := rs.Results[0].Error; !strings.Contains(msg, "poisoned") || !strings.Contains(msg, "simulated hardware fault") {
		t.Fatalf("row error = %q, want the poison diagnosis with the last failure", msg)
	}
	if leases != maxAttempts {
		t.Fatalf("item leased %d times, want %d", leases, maxAttempts)
	}
	if st := eng.Queue().Stats(); st.Poisoned != 1 || st.Requeues != maxAttempts-1 {
		t.Fatalf("queue stats = %+v, want 1 poisoned after %d requeues", st, maxAttempts-1)
	}
}

// TestRunReturnsAfterEveryResultEvent: RunCtx returns only once every
// item's Result event has been delivered. The daemon closes a job's event
// stream when RunCtx returns, so an item whose event was still on its way
// would be missing from the stream. Completions arrive here the way fleet
// completions do, on goroutines the engine does not own.
func TestRunReturnsAfterEveryResultEvent(t *testing.T) {
	eng := &Engine{Resume: true, Workers: -1}
	var delivered atomic.Int64
	slow := make(chan struct{})
	type result struct {
		rs  *ResultSet
		err error
	}
	ran := make(chan result, 1)
	go func() {
		rs, err := eng.RunCtx(context.Background(), parseManifest(t, `{
			"workloads": ["dh.ilp.2.1", "dh.ilp.2.2"],
			"schemes": ["icount", "cssp"],
			"trace_lens": [1000]
		}`), func(ev ItemEvent) {
			if ev.Result == nil {
				return
			}
			if ev.Index == 0 { // a slow consumer while the rest complete
				close(slow)
				time.Sleep(100 * time.Millisecond)
			}
			delivered.Add(1)
		})
		ran <- result{rs, err}
	}()

	q := eng.Queue()
	var tasks []Task
	for len(tasks) < 4 {
		tasks = append(tasks, q.LeaseWait(context.Background(), "w1", 4, time.Minute, time.Second)...)
	}
	st := &metrics.Stats{Cycles: 1000, Committed: []uint64{400, 400}}
	complete := func(task Task) {
		if !q.Complete("w1", Completion{ID: task.ID, Attempt: task.Attempt, Executed: true, Stats: st}) {
			t.Errorf("completion of %s rejected", task.ID)
		}
	}
	go complete(tasks[0])
	<-slow
	for _, task := range tasks[1:] {
		complete(task)
	}
	r := <-ran
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := delivered.Load(); got != int64(r.rs.Total) {
		t.Fatalf("RunCtx returned after %d of %d Result events", got, r.rs.Total)
	}
}
