package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"noisewave/internal/telemetry"
)

// TestRunPartialCancellation: at every worker count, canceling mid-sweep
// must surface the completed subset, flag exactly those indices, and return
// an error matching telemetry.ErrCanceled. Once the context is canceled no
// further case starts: only the cases other workers had already taken off
// the queue may still run (at most workers−1).
//
// The case that cancels counts and cancels under one lock. With an atomic
// counter alone, that goroutine could be preempted between reaching
// stopAfter and calling cancel (common under -race) while the other
// workers ran every remaining case.
func TestRunPartialCancellation(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n, stopAfter = 64, 5
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var (
				mu    sync.Mutex
				calls int
			)
			results, completed, _, err := Run(ctx, n, Options{Workers: workers}, noState,
				func(ctx context.Context, i int, _ struct{}) (int, error) {
					mu.Lock()
					if calls++; calls == stopAfter {
						cancel()
					}
					mu.Unlock()
					return i * i, nil
				})
			if err == nil {
				t.Fatal("nil error from canceled sweep")
			}
			if !errors.Is(err, telemetry.ErrCanceled) {
				t.Errorf("error %v does not match telemetry.ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("error %v does not match context.Canceled", err)
			}
			if len(results) != n || len(completed) != n {
				t.Fatalf("len(results)=%d len(completed)=%d, want %d", len(results), len(completed), n)
			}
			nDone := 0
			for i, ok := range completed {
				if ok {
					nDone++
					if results[i] != i*i {
						t.Errorf("completed case %d holds %d, want %d", i, results[i], i*i)
					}
				} else if results[i] != 0 {
					t.Errorf("incomplete case %d holds %d, want zero value", i, results[i])
				}
			}
			if nDone < stopAfter || nDone > stopAfter+workers-1 {
				t.Errorf("%d cases completed, want partial coverage in [%d, %d]", nDone, stopAfter, stopAfter+workers-1)
			}
		})
	}
}

// TestSequentialPartialCancellation: the sequential oracle (Workers == 1)
// completes the exact prefix before the cancellation point and nothing
// after it.
func TestSequentialPartialCancellation(t *testing.T) {
	const n, stopAfter = 20, 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	results, completed, _, err := Run(ctx, n, Options{Workers: 1}, noState,
		func(ctx context.Context, i int, _ struct{}) (int, error) {
			calls++
			if calls == stopAfter {
				cancel()
			}
			return i + 100, nil
		})
	if !errors.Is(err, telemetry.ErrCanceled) {
		t.Fatalf("error %v does not match telemetry.ErrCanceled", err)
	}
	if calls != stopAfter {
		t.Errorf("do ran %d times, want exactly %d", calls, stopAfter)
	}
	for i := 0; i < n; i++ {
		wantDone := i < stopAfter
		if completed[i] != wantDone {
			t.Errorf("completed[%d] = %v, want %v", i, completed[i], wantDone)
		}
		if wantDone && results[i] != i+100 {
			t.Errorf("results[%d] = %d, want %d", i, results[i], i+100)
		}
	}
}

// TestSweepTelemetryComparable: the pool and the sequential oracle record
// the same completion counter and pool-size gauge semantics, so throughput
// derived from a snapshot is comparable across worker counts.
func TestSweepTelemetryComparable(t *testing.T) {
	const n = 24
	for _, tc := range []struct {
		name    string
		workers int
		run     func(reg *telemetry.Registry) error
	}{
		{"sequential", 1, func(reg *telemetry.Registry) error {
			_, _, _, err := Run(context.Background(), n, Options{Workers: 1, Telemetry: reg}, noState,
				func(ctx context.Context, i int, _ struct{}) (int, error) { return i, nil })
			return err
		}},
		{"pool", 4, func(reg *telemetry.Registry) error {
			_, _, _, err := Run(context.Background(), n, Options{Workers: 4, Telemetry: reg}, noState,
				func(ctx context.Context, i int, _ struct{}) (int, error) { return i, nil })
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			if err := tc.run(reg); err != nil {
				t.Fatalf("sweep: %v", err)
			}
			snap := reg.Snapshot()
			if got := snap.Counters["sweep.cases_completed"]; got != n {
				t.Errorf("sweep.cases_completed = %d, want %d", got, n)
			}
			if got := snap.Counters["sweep.cases_dispatched"]; got != n {
				t.Errorf("sweep.cases_dispatched = %d, want %d", got, n)
			}
			// Both gauges are reset on exit: a post-sweep snapshot must
			// not claim a live pool or a pending queue.
			if got := snap.Gauges["sweep.pool_size"]; got != 0 {
				t.Errorf("sweep.pool_size = %g at exit, want 0", got)
			}
			if got := snap.Gauges["sweep.queue_depth"]; got != 0 {
				t.Errorf("sweep.queue_depth = %g at exit, want 0", got)
			}
			// Per-worker case counts must add up to the total.
			var perWorker int64
			for name, v := range snap.Counters {
				if len(name) > 13 && name[:13] == "sweep.worker." && name[len(name)-6:] == ".cases" {
					perWorker += v
				}
			}
			if perWorker != n {
				t.Errorf("per-worker case counts sum to %d, want %d", perWorker, n)
			}
		})
	}
}

// TestRunPartialCaseError: a case failure keeps the other completed cases
// and returns the original (non-cancellation) error.
func TestRunPartialCaseError(t *testing.T) {
	boom := errors.New("boom")
	results, completed, report, err := Run(context.Background(), 8, Options{Workers: 2}, noState,
		func(ctx context.Context, i int, _ struct{}) (int, error) {
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want boom", err)
	}
	if errors.Is(err, telemetry.ErrCanceled) {
		t.Error("case failure must not masquerade as a cancellation")
	}
	if completed[3] {
		t.Error("failing case marked completed")
	}
	for i, ok := range completed {
		if ok && results[i] != i {
			t.Errorf("results[%d] = %d, want %d", i, results[i], i)
		}
	}
	// Even without KeepGoing the report names the case that aborted.
	if f, ok := report.Case(3); !ok || !errors.Is(f.Err, boom) {
		t.Errorf("failure report does not name case 3: %v", report)
	}
}
