package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// noState is the worker factory for stateless tests.
func noState(int) (struct{}, error) { return struct{}{}, nil }

// TestOrderingDeterminism: results must come back indexed by case, not by
// completion order, even when workers finish in a scrambled sequence.
func TestOrderingDeterminism(t *testing.T) {
	const n = 64
	got, _, _, err := Run(context.Background(), n, Options{Workers: 8}, noState,
		func(_ context.Context, i int, _ struct{}) (int, error) {
			// Pseudo-random per-case delay scrambles completion order
			// deterministically (no global rand, no shared state).
			d := time.Duration(rand.New(rand.NewSource(int64(i)*2654435761)).Intn(3)) * time.Millisecond
			time.Sleep(d)
			return i * i, nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, r := range got {
		if r != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, r, i*i)
		}
	}
}

// TestWorkerState: every case must run with the state of exactly one
// worker, and no more workers than requested may be created.
func TestWorkerState(t *testing.T) {
	const n, workers = 32, 4
	var created int32
	seen := make([]int32, workers)
	_, _, _, err := Run(context.Background(), n, Options{Workers: workers},
		func(w int) (int, error) {
			atomic.AddInt32(&created, 1)
			return w, nil
		},
		func(_ context.Context, i int, w int) (int, error) {
			atomic.AddInt32(&seen[w], 1)
			return i, nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if created > workers {
		t.Errorf("created %d worker states, want <= %d", created, workers)
	}
	var total int32
	for _, c := range seen {
		total += c
	}
	if total != n {
		t.Errorf("workers executed %d cases, want %d", total, n)
	}
}

// TestErrorCancelsDispatch: the first case error must stop the dispatch of
// not-yet-started cases and be returned to the caller.
func TestErrorCancelsDispatch(t *testing.T) {
	const n = 200
	boom := errors.New("boom")
	var started int32
	_, _, _, err := Run(context.Background(), n, Options{Workers: 4}, noState,
		func(ctx context.Context, i int, _ struct{}) (int, error) {
			atomic.AddInt32(&started, 1)
			if i == 5 {
				return 0, fmt.Errorf("case 5: %w", boom)
			}
			// Non-failing cases take long enough that cancellation
			// happens while most of the sweep is still undispatched.
			select {
			case <-ctx.Done():
			case <-time.After(20 * time.Millisecond):
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want wrapped %v", err, boom)
	}
	if s := atomic.LoadInt32(&started); s >= n {
		t.Errorf("all %d cases were dispatched despite early error", s)
	}
}

// TestLowestErrorIndexWins: when several cases fail, the reported error is
// the one with the lowest case index, making failures deterministic.
func TestLowestErrorIndexWins(t *testing.T) {
	const n = 16
	var wg sync.WaitGroup
	wg.Add(n) // hold every case open until all have started
	_, _, _, err := Run(context.Background(), n, Options{Workers: n}, noState,
		func(_ context.Context, i int, _ struct{}) (int, error) {
			wg.Done()
			wg.Wait()
			if i%2 == 1 {
				return 0, fmt.Errorf("case %d failed", i)
			}
			return i, nil
		})
	if err == nil || err.Error() != "case 1 failed" {
		t.Fatalf("Run error = %v, want case 1 failed", err)
	}
}

// TestWorkerFactoryError: a failing worker factory aborts the sweep.
func TestWorkerFactoryError(t *testing.T) {
	bad := errors.New("no simulator")
	_, _, _, err := Run(context.Background(), 8, Options{Workers: 2},
		func(w int) (struct{}, error) {
			if w == 1 {
				return struct{}{}, bad
			}
			return struct{}{}, nil
		},
		func(_ context.Context, i int, _ struct{}) (int, error) { return i, nil })
	if !errors.Is(err, bad) {
		t.Fatalf("Run error = %v, want %v", err, bad)
	}
}

// TestProgressSerialized: done counts must be strictly increasing and end
// at n — the callback contract that lets cmd/repro print without locks.
func TestProgressSerialized(t *testing.T) {
	const n = 50
	var calls []int
	_, _, _, err := Run(context.Background(), n, Options{
		Workers:  8,
		Progress: func(done, total int) { calls = append(calls, done) }, // serialized by Run
	}, noState,
		func(_ context.Context, i int, _ struct{}) (int, error) { return i, nil })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(calls) != n {
		t.Fatalf("%d progress calls, want %d", len(calls), n)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress call %d reported done=%d, want %d", i, d, i+1)
		}
	}
}

// TestParentCancellation: canceling the parent context stops the sweep
// with a context error.
func TestParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int32
	go func() {
		for atomic.LoadInt32(&started) == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, _, _, err := Run(ctx, 100, Options{Workers: 2}, noState,
		func(ctx context.Context, i int, _ struct{}) (int, error) {
			atomic.AddInt32(&started, 1)
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Millisecond):
			}
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
}

// TestSequentialOracle: the sequential loop (Workers == 1) and the pool
// agree with each other and with the obvious loop.
func TestSequentialOracle(t *testing.T) {
	const n = 20
	do := func(_ context.Context, i int, _ struct{}) (int, error) { return 3*i + 1, nil }
	seq, _, _, err := Run(context.Background(), n, Options{Workers: 1}, noState, do)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, _, _, err := Run(context.Background(), n, Options{Workers: 4}, noState, do)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	for i := range seq {
		if seq[i] != 3*i+1 || par[i] != seq[i] {
			t.Fatalf("index %d: sequential %d parallel %d want %d", i, seq[i], par[i], 3*i+1)
		}
	}
}

// TestZeroCases: an empty sweep returns an empty, non-nil result.
func TestZeroCases(t *testing.T) {
	got, _, _, err := Run(context.Background(), 0, Options{}, noState,
		func(_ context.Context, i int, _ struct{}) (int, error) { return i, nil })
	if err != nil || got == nil || len(got) != 0 {
		t.Fatalf("Run(0 cases) = %v, %v; want empty slice, nil error", got, err)
	}
}
