// Package fleet scales the campaign service across processes: a
// coordinator — a campaign.Engine whose lease queue is served over HTTP,
// with a worker registry and the shared result store — and pull-based
// workers that lease task batches, simulate them locally and report
// completions. Placement stays in campaign.Plan and dispatch in
// campaign.Queue, the same queue a local Engine's in-process loops drain,
// which is what makes a fleet run of a manifest bit-for-bit identical to a
// local one.
//
// The failure model is lease-based: a worker that stops heartbeating (or
// never reports a leased item) loses its leases, and the items requeue
// with capped exponential backoff. Items that keep failing reach a
// terminal poison state after a bounded number of attempts, so one broken
// spec cannot wedge a campaign. Completions are idempotent, keyed by
// (item ID, attempt): duplicate or stale reports — a worker presumed dead
// that finishes anyway — are no-ops.
package fleet

import (
	"fmt"
	"sync"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/experiments"
)

// Config sizes a Coordinator. The zero value is usable: in-memory store,
// 10s leases, 4 attempts per item.
type Config struct {
	// Store is the fleet-shared result layer (typically *store.Store),
	// served to workers over GET/PUT /v1/store/{key}. Nil selects a private
	// in-memory store — the fleet still dedups, but results die with the
	// coordinator.
	Store experiments.ResultStore
	// LeaseTTL is how long a leased item stays assigned without a heartbeat
	// before it requeues; it is also the worker-liveness ttl (0 = 10s).
	LeaseTTL time.Duration
	// MaxAttempts bounds lease grants per item before it poisons (0 = 4).
	MaxAttempts int
	// RetryBase/RetryCap shape the exponential backoff between an item's
	// attempts (0 = 250ms base, 10s cap).
	RetryBase time.Duration
	RetryCap  time.Duration
	// PollInterval is how long the lease route holds an idle worker's
	// empty lease open, and the coordinator's reap cadence (0 = 250ms).
	PollInterval time.Duration
	// Clock overrides the time source (tests; nil = time.Now).
	Clock func() time.Time
	// Verbose, when set, receives one line per fleet lifecycle event.
	Verbose func(string)
}

// Coordinator is the fleet's control plane: a campaign.Engine with no
// in-process loops, whose lease queue remote workers drain over HTTP (see
// Register), plus the worker registry and the shared result store those
// routes serve. Campaigns run through the embedded Engine's RunCtx; a
// single Coordinator serves concurrent campaigns, whose items interleave
// on its one queue.
type Coordinator struct {
	*campaign.Engine
	cfg   Config
	queue *campaign.Queue
	reg   *registry
	clock func() time.Time

	mu       sync.Mutex
	lastTick time.Time
}

// NewCoordinator returns a coordinator with cfg's defaults applied.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	if cfg.Store == nil {
		cfg.Store = experiments.NewMemStore()
	}
	q := campaign.NewQueue(cfg.MaxAttempts, cfg.RetryBase, cfg.RetryCap, clock)
	eng := campaign.NewEngine(q)
	eng.Store, eng.Resume, eng.Workers = cfg.Store, true, -1
	return &Coordinator{
		Engine: eng,
		cfg:    cfg,
		queue:  q,
		reg:    newRegistry(cfg.LeaseTTL, clock),
		clock:  clock,
	}
}

// Status is the fleet's observable state, served by GET /v1/workers.
type Status struct {
	Workers []WorkerInfo        `json:"workers"`
	Queue   campaign.QueueStats `json:"queue"`
}

// Status snapshots the registry and queue.
func (c *Coordinator) Status() Status {
	leased := c.queue.LeasedBy()
	ws := c.reg.list()
	for i := range ws {
		ws[i].Leased = leased[ws[i].ID]
	}
	return Status{Workers: ws, Queue: c.queue.Stats()}
}

// Tick advances the failure detector once: workers past their liveness ttl
// are reaped (their leases requeue immediately) and expired leases
// reclaimed. The lease and heartbeat routes tick at most once per
// PollInterval, so detection advances whenever any worker talks to the
// coordinator — and a fleet with no live worker has no one to hand the
// reclaimed items to. Tests drive Tick directly against a fake clock.
func (c *Coordinator) Tick() {
	for _, id := range c.reg.reap() {
		n := c.queue.RequeueWorker(id)
		c.logf("worker %s reaped, %d leases requeued", id, n)
	}
	if n := c.queue.ExpireLeases(); n > 0 {
		c.logf("%d expired leases requeued", n)
	}
}

// tick runs Tick unless it ran within the last PollInterval.
func (c *Coordinator) tick() {
	now := c.clock()
	c.mu.Lock()
	due := now.Sub(c.lastTick) >= c.cfg.PollInterval
	if due {
		c.lastTick = now
	}
	c.mu.Unlock()
	if due {
		c.Tick()
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Verbose != nil {
		c.cfg.Verbose("fleet: " + fmt.Sprintf(format, args...))
	}
}
