package campaign

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
)

// Task is one leased work unit: the simulation spec, the sample interval
// the run asked for, and the lease's attempt number, which must be echoed
// in the completion (stale attempts are rejected). It is also the fleet's
// lease wire type; the in-process context travels in an unexported field
// that JSON never sees.
type Task struct {
	ID       string `json:"id"`
	Attempt  int    `json:"attempt"`
	TraceLen int    `json:"trace_len"`
	// SampleInterval, when positive, asks for the item's time series: one
	// metrics.Sample per interval cycles, returned with the completion.
	SampleInterval int64            `json:"sample_interval,omitempty"`
	Spec           experiments.Spec `json:"spec"`

	local *localItem
}

// Completion is a worker's report for one leased task. Executed
// distinguishes a fresh simulation from a store hit on the worker, feeding
// the campaign's executed/store-hit tally. Error marks a failed attempt:
// the item requeues (with backoff) until the attempt cap poisons it.
// Samples carries the time series of an executed, sampled task.
type Completion struct {
	ID       string           `json:"id"`
	Attempt  int              `json:"attempt"`
	Key      string           `json:"key,omitempty"`
	Executed bool             `json:"executed"`
	Error    string           `json:"error,omitempty"`
	Stats    *metrics.Stats   `json:"stats,omitempty"`
	Samples  []metrics.Sample `json:"samples,omitempty"`
}

// Outcome is a task's terminal result, delivered exactly once to the
// onDone callback registered at Add: either Stats from the accepted
// completion, or Err for a poisoned task. Worker names who completed it.
type Outcome struct {
	ID       string
	Attempt  int
	Worker   string
	Executed bool
	Stats    *metrics.Stats
	Samples  []metrics.Sample
	Err      error
}

// ErrPoisoned marks the outcome of a task that exhausted its attempts.
var ErrPoisoned = errors.New("poisoned")

// qtask is the queue's record of one live task. Terminal tasks leave the
// queue; only the Done/Poisoned counters remember them.
type qtask struct {
	task      Task // Attempt field tracks the latest lease
	seq       uint64
	leased    bool
	attempt   int       // lease grants so far
	worker    string    // current lease holder (leased)
	expires   time.Time // lease deadline (leased)
	notBefore time.Time // backoff gate (pending)
	lastErr   string    // most recent attempt failure
	onLease   func(Task)
	onDone    func(Outcome)
}

// QueueStats is a point-in-time tally of the queue, plus monotonic event
// counters.
type QueueStats struct {
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	// Done and Poisoned count tasks that reached each terminal state.
	Done     int `json:"done"`
	Poisoned int `json:"poisoned"`
	// Requeues counts every return to pending: failed attempts, expired
	// leases and lost workers.
	Requeues int64 `json:"requeues"`
	// Expirations counts leases reclaimed by timeout or worker loss.
	Expirations int64 `json:"expirations"`
	// Duplicates counts rejected completion reports (stale attempt, wrong
	// worker, unknown or already-terminal task).
	Duplicates int64 `json:"duplicates"`
	// Completions counts accepted successful completions.
	Completions int64 `json:"completions"`
}

// Queue is the campaign dispatch queue: every Engine item is a task on it,
// leased oldest-first by the engine's in-process loops or, through the
// fleet routes, by remote workers. Leases expire without renewal, failed
// attempts requeue behind a capped exponential backoff, and a task that
// keeps failing poisons after a bounded number of attempts. Completions
// are idempotent, keyed by (task, worker, attempt). It is safe for
// concurrent use; onLease/onDone callbacks fire outside the queue's lock.
type Queue struct {
	maxAttempts int
	retryBase   time.Duration
	retryCap    time.Duration
	clock       func() time.Time

	mu      sync.Mutex
	seq     uint64
	runs    int
	tasks   map[string]*qtask
	pending []*qtask      // in seq order, backing-off tasks included
	wake    chan struct{} // closed when a task becomes pending; nil until awaited
	stats   QueueStats    // counters only; Pending/Leased are derived
}

// NewQueue returns an empty queue. maxAttempts bounds lease grants per
// task before it poisons (0 = 4); retryBase/retryCap shape the exponential
// backoff between attempts (0 = 250ms base, 10s cap); clock is the time
// source (nil = time.Now).
func NewQueue(maxAttempts int, retryBase, retryCap time.Duration, clock func() time.Time) *Queue {
	if maxAttempts <= 0 {
		maxAttempts = 4
	}
	if retryBase <= 0 {
		retryBase = 250 * time.Millisecond
	}
	if retryCap <= 0 {
		retryCap = 10 * time.Second
	}
	if retryCap < retryBase {
		retryCap = retryBase
	}
	if clock == nil {
		clock = time.Now
	}
	return &Queue{
		maxAttempts: maxAttempts,
		retryBase:   retryBase,
		retryCap:    retryCap,
		clock:       clock,
		tasks:       make(map[string]*qtask),
	}
}

// Add enqueues a task. onLease (optional) fires on every lease grant —
// including re-leases after a failure — with the granted Task; onDone
// (optional) fires exactly once when the task reaches a terminal state.
// Both fire outside the queue lock. Adding an ID that already exists is an
// error.
func (q *Queue) Add(t Task, onLease func(Task), onDone func(Outcome)) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.tasks[t.ID]; ok {
		return fmt.Errorf("campaign: duplicate task %q", t.ID)
	}
	q.seq++
	qt := &qtask{task: t, seq: q.seq, onLease: onLease, onDone: onDone}
	q.tasks[t.ID] = qt
	q.pending = append(q.pending, qt)
	q.wakeLocked()
	return nil
}

// nextRun returns a fresh run number for task IDs.
func (q *Queue) nextRun() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.runs++
	return q.runs
}

// Remove deletes tasks by ID regardless of state, without firing onDone —
// the caller is abandoning the run (campaign cancel) and handles its own
// accounting. A completion for a removed task is a duplicate no-op.
func (q *Queue) Remove(ids []string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, id := range ids {
		delete(q.tasks, id)
	}
	keep := q.pending[:0]
	for _, t := range q.pending {
		if q.tasks[t.task.ID] == t {
			keep = append(keep, t)
		}
	}
	clear(q.pending[len(keep):])
	q.pending = keep
}

// Lease grants workerID up to max pending tasks, oldest first, under a ttl
// lease. Backoff-gated tasks are skipped until their notBefore passes.
// Each granted task's attempt number increments; onLease callbacks fire
// after the lock is released.
func (q *Queue) Lease(workerID string, max int, ttl time.Duration) []Task {
	out, _, _ := q.lease(workerID, max, ttl)
	return out
}

// LeaseWait is Lease that, when nothing is leasable, waits for a task to
// become leasable — an Add, a requeue, or a backoff running out — for up
// to d (d <= 0: no limit) or until ctx is done, and returns an empty batch
// only then. The fleet's lease route holds an idle worker's request open
// this way, and the engine's in-process loops block in it.
func (q *Queue) LeaseWait(ctx context.Context, workerID string, max int, ttl, d time.Duration) []Task {
	var limit <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		limit = t.C
	}
	for ctx.Err() == nil {
		out, wake, due := q.lease(workerID, max, ttl)
		if len(out) > 0 {
			return out
		}
		var backoff *time.Timer
		var backoffC <-chan time.Time
		if !due.IsZero() {
			backoff = time.NewTimer(due.Sub(q.clock()))
			backoffC = backoff.C
		}
		timedOut := false
		select {
		case <-wake:
		case <-backoffC:
		case <-limit:
			timedOut = true
		case <-ctx.Done():
		}
		if backoff != nil {
			backoff.Stop()
		}
		if timedOut {
			return nil
		}
	}
	return nil
}

// lease is Lease's body. When it grants nothing it returns what to wait
// for instead: a channel closed when a task next becomes pending, and the
// earliest backoff deadline among pending tasks (zero when none).
func (q *Queue) lease(workerID string, max int, ttl time.Duration) ([]Task, <-chan struct{}, time.Time) {
	if max <= 0 {
		return nil, nil, time.Time{}
	}
	now := q.clock()
	q.mu.Lock()
	var granted []*qtask
	var due time.Time
	keep := q.pending[:0]
	for i, t := range q.pending {
		if len(granted) == max {
			keep = append(keep, q.pending[i:]...)
			break
		}
		if now.Before(t.notBefore) {
			if due.IsZero() || t.notBefore.Before(due) {
				due = t.notBefore
			}
			keep = append(keep, t)
			continue
		}
		t.leased = true
		t.worker = workerID
		t.attempt++
		t.task.Attempt = t.attempt
		t.expires = now.Add(ttl)
		granted = append(granted, t)
	}
	clear(q.pending[len(keep):])
	q.pending = keep
	if len(granted) == 0 {
		if q.wake == nil {
			q.wake = make(chan struct{})
		}
		wake := q.wake
		q.mu.Unlock()
		return nil, wake, due
	}
	out := make([]Task, len(granted))
	for i, t := range granted {
		out[i] = t.task
	}
	q.mu.Unlock()
	for i, t := range granted {
		if t.onLease != nil { // set once at Add; safe to read unlocked
			t.onLease(out[i])
		}
	}
	return out, nil, time.Time{}
}

// wakeLocked releases every LeaseWait blocked on the current wake channel.
// Callers hold q.mu.
func (q *Queue) wakeLocked() {
	if q.wake != nil {
		close(q.wake)
		q.wake = nil
	}
}

// Renew extends every lease held by workerID to now+ttl (the heartbeat
// path) and returns how many it extended.
func (q *Queue) Renew(workerID string, ttl time.Duration) int {
	now := q.clock()
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, t := range q.tasks {
		if t.leased && t.worker == workerID {
			t.expires = now.Add(ttl)
			n++
		}
	}
	return n
}

// Complete processes a worker's report for a leased task. It is accepted
// only if the task is currently leased to workerID under the same attempt
// number; anything else (stale attempt after an expiry requeued the item,
// a duplicate report, an unknown or terminal task) is counted and ignored,
// which is what makes completion idempotent. An accepted success fires
// onDone; an accepted failure requeues with backoff or poisons at the
// attempt cap.
func (q *Queue) Complete(workerID string, c Completion) bool {
	q.mu.Lock()
	t, ok := q.tasks[c.ID]
	if !ok || !t.leased || t.worker != workerID || t.attempt != c.Attempt {
		q.stats.Duplicates++
		q.mu.Unlock()
		return false
	}
	var done func(Outcome)
	var out Outcome
	if c.Error != "" {
		t.lastErr = c.Error
		done, out = q.failLocked(t)
	} else {
		delete(q.tasks, c.ID)
		q.stats.Done++
		q.stats.Completions++
		done = t.onDone
		out = Outcome{ID: c.ID, Attempt: t.attempt, Worker: workerID, Executed: c.Executed, Stats: c.Stats, Samples: c.Samples}
	}
	q.mu.Unlock()
	if done != nil {
		done(out)
	}
	return true
}

// failLocked moves a leased task off its failed attempt: back to pending
// behind a capped exponential backoff, or — at the attempt cap — out of
// the queue as poisoned. Callers hold q.mu; the returned callback (nil
// unless poisoned) must be invoked after unlock.
func (q *Queue) failLocked(t *qtask) (func(Outcome), Outcome) {
	worker := t.worker
	t.leased = false
	t.worker = ""
	if t.attempt >= q.maxAttempts {
		delete(q.tasks, t.task.ID)
		q.stats.Poisoned++
		err := fmt.Errorf("campaign: task %s %w after %d attempts: %s", t.task.ID, ErrPoisoned, t.attempt, t.lastErr)
		return t.onDone, Outcome{ID: t.task.ID, Attempt: t.attempt, Worker: worker, Err: err}
	}
	backoff := q.retryBase << (t.attempt - 1)
	if backoff > q.retryCap || backoff <= 0 {
		backoff = q.retryCap
	}
	t.notBefore = q.clock().Add(backoff)
	i := sort.Search(len(q.pending), func(i int) bool { return q.pending[i].seq > t.seq })
	q.pending = append(q.pending, nil)
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = t
	q.stats.Requeues++
	q.wakeLocked()
	return nil, Outcome{}
}

// ExpireLeases reclaims every lease past its deadline: the items requeue
// (or poison at the attempt cap) exactly as a reported failure would, and
// any late completion for the old attempt becomes a duplicate no-op.
// It returns the number of leases reclaimed.
func (q *Queue) ExpireLeases() int {
	now := q.clock()
	return q.reclaim(func(t *qtask) bool { return now.After(t.expires) }, "lease expired")
}

// RequeueWorker reclaims every lease held by workerID immediately — the
// registry reaped it, so its leases are dead even if their ttl has time
// left. Returns the number reclaimed.
func (q *Queue) RequeueWorker(workerID string) int {
	return q.reclaim(func(t *qtask) bool { return t.worker == workerID }, "worker lost")
}

// reclaim applies the failure path to every leased task matching cond.
func (q *Queue) reclaim(cond func(*qtask) bool, reason string) int {
	q.mu.Lock()
	n := 0
	var dones []func(Outcome)
	var outs []Outcome
	for _, t := range q.tasks {
		if !t.leased || !cond(t) {
			continue
		}
		n++
		q.stats.Expirations++
		t.lastErr = reason
		if done, out := q.failLocked(t); done != nil {
			dones = append(dones, done)
			outs = append(outs, out)
		}
	}
	q.mu.Unlock()
	for i, done := range dones {
		done(outs[i])
	}
	return n
}

// LeasedBy counts currently-held leases per worker ID.
func (q *Queue) LeasedBy() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	m := make(map[string]int)
	for _, t := range q.tasks {
		if t.leased {
			m[t.worker]++
		}
	}
	return m
}

// Stats snapshots the queue.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.stats
	s.Pending = len(q.pending)
	s.Leased = len(q.tasks) - len(q.pending)
	return s
}
