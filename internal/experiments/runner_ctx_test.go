package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"clustersmt/internal/metrics"
	"clustersmt/internal/workload"
)

// TestWaiterSurvivesOwnerCancel: on a shared runner, a singleflight waiter
// whose own context is still live must not inherit the flight owner's
// cancellation — one job's DELETE must not fail overlapping items of other
// jobs. The waiter retries (becoming the new owner) and succeeds.
func TestWaiterSurvivesOwnerCancel(t *testing.T) {
	r := NewRunner(200_000)
	w, err := workload.Find("dh.mem.2.1")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Workload: w, Scheme: "icount", IQSize: 32, SingleThread: -1}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	var wg sync.WaitGroup
	var ownerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, ownerErr = r.RunCtx(ctxA, spec)
	}()

	// Wait for the owner's flight to register so the second call is a
	// waiter, not a second owner.
	deadline := time.Now().Add(10 * time.Second)
	key := r.CacheKey(spec)
	for {
		r.mu.Lock()
		_, inflight := r.inflight[key]
		r.mu.Unlock()
		if inflight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("owner flight never registered")
		}
		time.Sleep(time.Millisecond)
	}

	var waiterSt *metrics.Stats
	var waiterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		waiterSt, waiterErr = r.Run(spec)
	}()

	// Let the waiter block on the flight, then cancel the owner mid-run.
	time.Sleep(30 * time.Millisecond)
	cancelA()
	wg.Wait()

	if ownerErr != nil && !errors.Is(ownerErr, context.Canceled) {
		t.Fatalf("owner error = %v", ownerErr)
	}
	if waiterErr != nil {
		t.Fatalf("waiter inherited the owner's cancellation: %v", waiterErr)
	}
	if waiterSt == nil || waiterSt.IPC() <= 0 {
		t.Fatalf("waiter stats = %+v", waiterSt)
	}
	// Exactly one successful execution no matter who ran it.
	if got := r.Executed(); got != 1 {
		t.Fatalf("executed = %d, want 1", got)
	}
}

// TestRunCtxCancelBeforeStart: a context cancelled before Run begins fails
// fast without executing or storing anything.
func TestRunCtxCancelBeforeStart(t *testing.T) {
	r := NewRunner(2000)
	w, err := workload.Find("dh.ilp.2.1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := Spec{Workload: w, Scheme: "icount", IQSize: 32, SingleThread: -1}
	if _, err := r.RunCtx(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r.Executed() != 0 {
		t.Fatalf("executed = %d", r.Executed())
	}
	if st, ok, _ := r.Store.Get(r.CacheKey(spec)); ok {
		t.Fatalf("cancelled run stored a result: %+v", st)
	}
}
