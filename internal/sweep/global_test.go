package sweep

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// workerCounts are the pool sizes the tests below cover: the sequential
// oracle and two pools.
var workerCounts = []int{1, 2, 4}

// The tests in this file keep the names they had when sweeps could also be
// split into in-process shards. Sharding is gone; what they pin is that the
// progress count, the failure indices and the stop-on-error partials are
// global — the same at every worker count — rather than local to a worker.

// TestRunShardedGlobalProgress: at every worker count, Progress reports the
// global settled count over the global total, strictly increasing and
// ending at n.
func TestRunShardedGlobalProgress(t *testing.T) {
	const n = 30
	for _, workers := range append(workerCounts, 8) {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var dones []int
			_, _, _, err := Run(context.Background(), n, Options{
				Workers: workers,
				Progress: func(done, total int) { // serialized by Run
					if total != n {
						t.Errorf("progress total = %d, want %d", total, n)
					}
					dones = append(dones, done)
				},
			}, noState,
				func(_ context.Context, i int, _ struct{}) (int, error) { return i, nil })
			if err != nil {
				t.Fatal(err)
			}
			if len(dones) != n {
				t.Fatalf("%d progress calls, want %d: %v", len(dones), n, dones)
			}
			for i, d := range dones {
				if d != i+1 {
					t.Fatalf("progress call %d reported done=%d, want %d", i, d, i+1)
				}
			}
		})
	}
}

// TestRunShardedFailureIndicesGlobal: at every worker count, quarantined
// cases are reported by their case index, in ascending order, and every
// other case completes.
func TestRunShardedFailureIndicesGlobal(t *testing.T) {
	const n = 40
	bad := []int{7, 23, 38}
	isBad := map[int]bool{7: true, 23: true, 38: true}
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			results, completed, rep, err := Run(context.Background(), n,
				Options{Workers: workers, KeepGoing: true}, noState,
				func(_ context.Context, i int, _ struct{}) (int, error) {
					if isBad[i] {
						return 0, fmt.Errorf("case %d broken", i)
					}
					return i, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if rep == nil || len(rep.Failures) != len(bad) {
				t.Fatalf("failure report = %v, want %d failures", rep, len(bad))
			}
			for j, idx := range bad {
				if f := rep.Failures[j]; f.Index != idx {
					t.Errorf("failure %d = case %d, want case %d: %v", j, f.Index, idx, rep)
				}
			}
			for i := 0; i < n; i++ {
				if completed[i] == isBad[i] {
					t.Errorf("case %d: completed=%v, injected failure=%v", i, completed[i], isBad[i])
				}
				if completed[i] && results[i] != i {
					t.Errorf("results[%d] = %d, want %d", i, results[i], i)
				}
			}
		})
	}
}

// TestRunShardedStopsOnError: at every worker count, without KeepGoing a
// failing case aborts the run with its own error and the cases completed
// before it are preserved in the partials — on the sequential oracle
// exactly the prefix before the first failure.
func TestRunShardedStopsOnError(t *testing.T) {
	const n, failFrom = 20, 10
	boom := errors.New("boom")
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			results, completed, rep, err := Run(context.Background(), n,
				Options{Workers: workers}, noState,
				func(_ context.Context, i int, _ struct{}) (int, error) {
					if i >= failFrom {
						return 0, boom
					}
					return i + 1, nil
				})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the injected failure", err)
			}
			// Which failing case the pool reaches first varies; the report
			// names failing cases only.
			if rep == nil || len(rep.Failures) == 0 {
				t.Fatalf("failure report = %v, want the aborting case", rep)
			}
			for _, f := range rep.Failures {
				if f.Index < failFrom || !errors.Is(f.Err, boom) {
					t.Errorf("report names case %d (%v), not an injected failure", f.Index, f.Err)
				}
			}
			for i := range results {
				if completed[i] && results[i] != i+1 {
					t.Errorf("completed case %d holds %d, want %d", i, results[i], i+1)
				}
				if i >= failFrom && completed[i] {
					t.Errorf("failing case %d marked completed", i)
				}
				if workers == 1 && completed[i] != (i < failFrom) {
					t.Errorf("sequential oracle: completed[%d] = %v, want the prefix before case %d", i, completed[i], failFrom)
				}
			}
		})
	}
}
