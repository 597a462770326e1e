// Policy, cancellation and budget tests for the sharded decomposition
// engine.  External test package because check imports core.
package core_test

import (
	"context"
	"errors"
	"testing"

	"hyperplex/internal/check"
	"hyperplex/internal/core"
	"hyperplex/internal/run"
)

// TestShardedDecomposeOptionFallback is the regression test for the
// shard- and worker-count policies: non-positive values fall back to
// runtime.NumCPU() and absurdly large requests are clamped, so every
// combination must still produce the paper's overlap-peel answer.
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
