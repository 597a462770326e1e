// Policy, cancellation and budget tests for the in-process driver
// that every core route runs, sequential or sharded.  External test
// package because check imports core.
package core_test

import (
	"context"
	"errors"
	"testing"

	"hyperplex/internal/check"
	"hyperplex/internal/core"
	"hyperplex/internal/dataset"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/run"
	"hyperplex/internal/xrand"
)

// TestShardedDecomposeOptionFallback is the regression test for the
// shard-count policy: non-positive values fall back to runtime.NumCPU()
// and absurdly large requests are clamped, so every combination must
// still produce the paper's overlap-peel answer.  Workers is
// deprecated and ignored; the combinations keep setting it to pin that.
func TestShardedDecomposeOptionFallback(t *testing.T) {
	for i, h := range check.Instances(4, 2027) {
		want := check.OverlapDecompose(h)
		for _, opts := range []core.ShardedOptions{
			{Shards: -1, Workers: -1},
			{},
			{Shards: 1, Workers: 1},
			{Shards: 1 << 20, Workers: 1 << 20},
			{Shards: 3, Workers: 2},
		} {
			got := core.ShardedDecompose(h, opts)
			if got.MaxK != want.MaxK {
				t.Fatalf("instance %d opts=%+v: MaxK = %d, want %d", i, opts, got.MaxK, want.MaxK)
			}
			for v, c := range want.VertexCoreness {
				if got.VertexCoreness[v] != c {
					t.Fatalf("instance %d opts=%+v: vertex %d coreness %d, want %d",
						i, opts, v, got.VertexCoreness[v], c)
				}
			}
		}
	}
}

// TestDecomposeCtxCancelled pins the cancellation contract of the
// sequential route: an already-cancelled context returns
// (nil, context.Canceled) before any work, on every sweep instance.
func TestDecomposeCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, h := range check.Instances(12, 0xC5A2) {
		d, err := core.DecomposeCtx(ctx, h)
		if d != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("instance %d: want (nil, context.Canceled), got (%v, %v)", i, d, err)
		}
	}
}

// TestDecomposeCtxBudget pins the budget contract of the sequential
// route: a one-step budget trips a checkpoint on any instance big
// enough to reach one.
func TestDecomposeCtxBudget(t *testing.T) {
	h := gen.RandomHypergraph(300, 200, 6, xrand.New(0xC5A3))
	ctx, _ := run.WithBudget(context.Background(), run.Budget{MaxSteps: 1})
	d, err := core.DecomposeCtx(ctx, h)
	if d != nil || !errors.Is(err, run.ErrBudgetExceeded) {
		t.Fatalf("want (nil, ErrBudgetExceeded), got (%v, %v)", d, err)
	}
}

func TestShardedDecomposeCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, h := range check.Instances(2, 7) {
		d, err := core.ShardedDecomposeCtx(ctx, h, core.ShardedOptions{Shards: 3})
		if d != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("instance %d: want (nil, context.Canceled), got (%v, %v)", i, d, err)
		}
	}
}

func TestShardedDecomposeCtxBudget(t *testing.T) {
	insts := check.Instances(2, 11)
	h := insts[len(insts)-1] // the largest random instance
	ctx, _ := run.WithBudget(context.Background(), run.Budget{MaxSteps: 1})
	d, err := core.ShardedDecomposeCtx(ctx, h, core.ShardedOptions{Shards: 3})
	if d != nil || !errors.Is(err, run.ErrBudgetExceeded) {
		t.Fatalf("want (nil, ErrBudgetExceeded), got (%v, %v)", d, err)
	}
}

// TestShardedCostPins pins what ShardedDecomposeCtx costs at 2 shards
// on Cellzome and on the banded 8000x8000 instance of TestPeelStepPins:
// the heap allocations of one call (testing.AllocsPerRun) and the steps
// its phases charge to the run.Meter.  Both are deterministic.  The
// round loop reuses one dying and one retired buffer and the phases
// allocate nothing, so a per-round snapshot or buffer allocation moves
// the allocation pin by the round count, and a change to what a phase
// charges moves the step pin.  A change may re-record a pin only when
// it changes the driver's allocations or charging on purpose, and it
// gives the reason in CHANGES.md.
func TestShardedCostPins(t *testing.T) {
	banded, err := mmio.ToHypergraph(gen.SyntheticMatrix(gen.MatrixSpec{Name: "bench", Rows: 8000, Cols: 8000, Band: 10, BandFill: 0.7, RandomPerRow: 2, Seed: 0xBE}))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.ShardedOptions{Shards: 2}
	for _, tc := range []struct {
		name   string
		h      *hypergraph.Hypergraph
		allocs float64
		steps  int64
	}{
		{"Cellzome", dataset.Cellzome().H, 37, 15784},
		{"banded 8000x8000", banded, 45, 1760832},
	} {
		ctx, meter := run.WithBudget(context.Background(), run.Budget{})
		if _, err := core.ShardedDecomposeCtx(ctx, tc.h, opts); err != nil {
			t.Fatal(err)
		}
		if got := meter.Steps(); got != tc.steps {
			t.Errorf("%s: ShardedDecomposeCtx at 2 shards charged %d steps, pinned %d", tc.name, got, tc.steps)
		}
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := core.ShardedDecomposeCtx(context.Background(), tc.h, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.allocs {
			t.Errorf("%s: ShardedDecomposeCtx at 2 shards made %v allocations, pinned %v", tc.name, allocs, tc.allocs)
		}
	}
}
