package fleet

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/metrics"
)

// The lease queue lives in package campaign, where the engine enqueues on
// it; its unit tests stay beside the fleet routes that serve it.
type (
	Queue   = campaign.Queue
	Outcome = campaign.Outcome
)

var (
	NewQueue    = campaign.NewQueue
	errPoisoned = campaign.ErrPoisoned
)

// fakeClock is a manually-advanced time source for lease tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// doneRecorder collects terminal outcomes and fails the test on a double
// delivery — OnDone must fire exactly once per task.
type doneRecorder struct {
	t  *testing.T
	mu sync.Mutex
	m  map[string][]Outcome
}

func newDoneRecorder(t *testing.T) *doneRecorder {
	return &doneRecorder{t: t, m: make(map[string][]Outcome)}
}

func (d *doneRecorder) onDone(o Outcome) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[o.ID] = append(d.m[o.ID], o)
	if len(d.m[o.ID]) > 1 {
		d.t.Errorf("OnDone fired %d times for %s", len(d.m[o.ID]), o.ID)
	}
}

func (d *doneRecorder) outcome(id string) (Outcome, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.m[id]) == 0 {
		return Outcome{}, false
	}
	return d.m[id][0], true
}

const ttl = 10 * time.Second

func newTestQueue(clk *fakeClock, maxAttempts int) *Queue {
	return NewQueue(maxAttempts, 100*time.Millisecond, time.Second, clk.now)
}

func TestExpiryRequeuesExactlyOnce(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	rec := newDoneRecorder(t)
	if err := q.Add(Task{ID: "a"}, nil, rec.onDone); err != nil {
		t.Fatal(err)
	}

	got := q.Lease("w1", 10, ttl)
	if len(got) != 1 || got[0].Attempt != 1 {
		t.Fatalf("lease = %+v, want 1 task at attempt 1", got)
	}

	clk.advance(ttl + time.Second)
	if n := q.ExpireLeases(); n != 1 {
		t.Fatalf("first ExpireLeases reclaimed %d leases, want 1", n)
	}
	if n := q.ExpireLeases(); n != 0 {
		t.Fatalf("second ExpireLeases reclaimed %d leases, want 0 (already requeued)", n)
	}
	st := q.Stats()
	if st.Pending != 1 || st.Requeues != 1 || st.Expirations != 1 {
		t.Fatalf("stats after expiry = %+v", st)
	}

	// The requeued item leases again with a bumped attempt (after backoff).
	clk.advance(2 * time.Second)
	got = q.Lease("w1", 10, ttl)
	if len(got) != 1 || got[0].Attempt != 2 {
		t.Fatalf("re-lease = %+v, want attempt 2", got)
	}
}

func TestRenewalPreventsRequeue(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	rec := newDoneRecorder(t)
	q.Add(Task{ID: "a"}, nil, rec.onDone)
	q.Lease("w1", 1, ttl)

	// Heartbeat renewals inside the ttl keep the lease alive arbitrarily
	// long past the original deadline.
	for i := 0; i < 5; i++ {
		clk.advance(ttl / 2)
		if n := q.Renew("w1", ttl); n != 1 {
			t.Fatalf("Renew extended %d leases, want 1", n)
		}
		if n := q.ExpireLeases(); n != 0 {
			t.Fatalf("lease expired despite renewal (round %d)", i)
		}
	}
	if !q.Complete("w1", Completion{ID: "a", Attempt: 1, Stats: &metrics.Stats{Cycles: 1}}) {
		t.Fatal("completion rejected on a renewed lease")
	}
	if o, ok := rec.outcome("a"); !ok || o.Err != nil {
		t.Fatalf("outcome = %+v, %v", o, ok)
	}
}

func TestDuplicateCompletionAfterExpiryIgnored(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	rec := newDoneRecorder(t)
	q.Add(Task{ID: "a"}, nil, rec.onDone)
	q.Lease("w1", 1, ttl)

	// w1 goes silent; its lease expires and w2 picks the item up.
	clk.advance(ttl + time.Second)
	q.ExpireLeases()
	clk.advance(time.Second)
	got := q.Lease("w2", 1, ttl)
	if len(got) != 1 || got[0].Attempt != 2 {
		t.Fatalf("w2 lease = %+v, want attempt 2", got)
	}

	// w1 finishes anyway and reports its stale attempt: rejected, no
	// outcome delivered. A worker-reported Executed on a stale attempt must
	// never reach the tally — this is the no-double-count guarantee behind
	// sims_executed_total.
	if q.Complete("w1", Completion{ID: "a", Attempt: 1, Executed: true, Stats: &metrics.Stats{}}) {
		t.Fatal("stale completion accepted")
	}
	if _, ok := rec.outcome("a"); ok {
		t.Fatal("stale completion delivered an outcome")
	}
	if st := q.Stats(); st.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", st.Duplicates)
	}

	// w2's live attempt lands normally, exactly once.
	if !q.Complete("w2", Completion{ID: "a", Attempt: 2, Executed: true, Stats: &metrics.Stats{}}) {
		t.Fatal("live completion rejected")
	}
	if q.Complete("w2", Completion{ID: "a", Attempt: 2, Executed: true, Stats: &metrics.Stats{}}) {
		t.Fatal("repeat of an accepted completion accepted again")
	}
	if o, ok := rec.outcome("a"); !ok || o.Attempt != 2 || !o.Executed {
		t.Fatalf("outcome = %+v, %v", o, ok)
	}
}

func TestCompletionFromWrongWorkerRejected(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	q.Add(Task{ID: "a"}, nil, nil)
	q.Lease("w1", 1, ttl)
	if q.Complete("w2", Completion{ID: "a", Attempt: 1, Stats: &metrics.Stats{}}) {
		t.Fatal("completion from a worker that does not hold the lease was accepted")
	}
	if q.Complete("w1", Completion{ID: "nope", Attempt: 1}) {
		t.Fatal("completion for an unknown task accepted")
	}
}

func TestBackoffGatesRelease(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5) // base 100ms, cap 1s
	q.Add(Task{ID: "a"}, nil, nil)

	q.Lease("w1", 1, ttl)
	q.Complete("w1", Completion{ID: "a", Attempt: 1, Error: "boom"})

	// Immediately after the failure the item is backing off.
	if got := q.Lease("w1", 1, ttl); len(got) != 0 {
		t.Fatalf("leased %d tasks during backoff, want 0", len(got))
	}
	clk.advance(150 * time.Millisecond) // past base<<0
	if got := q.Lease("w1", 1, ttl); len(got) != 1 {
		t.Fatal("item not leasable after backoff elapsed")
	}

	// Second failure doubles the backoff window.
	q.Complete("w1", Completion{ID: "a", Attempt: 2, Error: "boom"})
	clk.advance(150 * time.Millisecond)
	if got := q.Lease("w1", 1, ttl); len(got) != 0 {
		t.Fatal("second backoff did not grow")
	}
	clk.advance(100 * time.Millisecond) // total 250ms > base<<1
	if got := q.Lease("w1", 1, ttl); len(got) != 1 {
		t.Fatal("item not leasable after doubled backoff")
	}
}

func TestPoisonAfterAttemptCap(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 2)
	rec := newDoneRecorder(t)
	q.Add(Task{ID: "a"}, nil, rec.onDone)

	for attempt := 1; attempt <= 2; attempt++ {
		clk.advance(2 * time.Second) // clears any backoff
		got := q.Lease("w1", 1, ttl)
		if len(got) != 1 {
			t.Fatalf("attempt %d not leased", attempt)
		}
		q.Complete("w1", Completion{ID: "a", Attempt: attempt, Error: "bad spec"})
	}

	o, ok := rec.outcome("a")
	if !ok {
		t.Fatal("poisoned task delivered no outcome")
	}
	if !errors.Is(o.Err, errPoisoned) {
		t.Fatalf("outcome error = %v, want errPoisoned", o.Err)
	}
	if !strings.Contains(o.Err.Error(), "bad spec") {
		t.Fatalf("poison error %q does not carry the last failure", o.Err)
	}
	st := q.Stats()
	if st.Poisoned != 1 || st.Pending != 0 {
		t.Fatalf("stats = %+v, want 1 poisoned", st)
	}
	// Terminal: never leased again.
	clk.advance(time.Hour)
	if got := q.Lease("w1", 1, ttl); len(got) != 0 {
		t.Fatal("poisoned task leased again")
	}
}

func TestRequeueWorkerReclaimsImmediately(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	q.Add(Task{ID: "a"}, nil, nil)
	q.Add(Task{ID: "b"}, nil, nil)
	q.Lease("w1", 2, ttl)

	// The registry reaped w1: its leases die now, not at ttl.
	if n := q.RequeueWorker("w1"); n != 2 {
		t.Fatalf("RequeueWorker reclaimed %d, want 2", n)
	}
	if st := q.Stats(); st.Pending != 2 || st.Leased != 0 {
		t.Fatalf("stats = %+v, want both pending", st)
	}
	if q.Complete("w1", Completion{ID: "a", Attempt: 1, Stats: &metrics.Stats{}}) {
		t.Fatal("completion accepted after the worker was requeued")
	}
}

func TestRemoveSilencesCompletions(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	rec := newDoneRecorder(t)
	q.Add(Task{ID: "a"}, nil, rec.onDone)
	q.Lease("w1", 1, ttl)

	q.Remove([]string{"a"})
	if q.Complete("w1", Completion{ID: "a", Attempt: 1, Stats: &metrics.Stats{}}) {
		t.Fatal("completion for a removed task accepted")
	}
	if _, ok := rec.outcome("a"); ok {
		t.Fatal("removed task delivered an outcome")
	}
}
