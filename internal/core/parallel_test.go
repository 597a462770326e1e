// Regression and cancellation tests for the parallel peeler.  External
// test package because check imports core.
package core_test

import (
	"context"
	"errors"
	"testing"

	"hyperplex/internal/check"
	"hyperplex/internal/core"
	"hyperplex/internal/run"
)

// TestKCoreParallelWorkerFallback is the regression test for the
// worker-count policy: workers ≤ 0 falls back to runtime.NumCPU() and
// absurdly large requests are clamped, so every value must still
// produce the paper's overlap-peel answer rather than misbehave.
func TestKCoreParallelWorkerFallback(t *testing.T) {
	for i, h := range check.Instances(4, 2026) {
		want := check.OverlapCore(h, 2, 1)
		for _, workers := range []int{-1, 0, 1, 3, 1 << 20} {
			got := core.KCoreParallel(h, 2, workers)
			if err := check.SameResult(h, want, got); err != nil {
				t.Fatalf("instance %d workers=%d: parallel disagrees with the overlap peel: %v",
					i, workers, err)
			}
		}
	}
}

func TestKCoreParallelCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, h := range check.Instances(2, 7) {
		r, err := core.KCoreParallelCtx(ctx, h, 2, 4)
		if r != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("instance %d: want (nil, context.Canceled), got (%v, %v)", i, r, err)
		}
	}
}

func TestKCoreParallelCtxBudget(t *testing.T) {
	insts := check.Instances(2, 11)
	h := insts[len(insts)-1] // the largest random instance
	ctx, _ := run.WithBudget(context.Background(), run.Budget{MaxSteps: 1})
	r, err := core.KCoreParallelCtx(ctx, h, 2, 4)
	if r != nil || !errors.Is(err, run.ErrBudgetExceeded) {
		t.Fatalf("want (nil, ErrBudgetExceeded), got (%v, %v)", r, err)
	}
}
