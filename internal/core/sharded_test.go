// Policy, cancellation and budget tests for the in-process driver
// that every core route runs, sequential or sharded.  External test
// package because check imports core.
package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
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
// replica allocates its dying and retired buffers once per call, at
// their bounds, the driver one list of every shard for the replica's
// Restore, and the phases allocate nothing, so the allocation pin
// does not depend on the instance; a per-round snapshot or buffer
// allocation moves it by the round count, and a change to what a phase
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
		{"Cellzome", dataset.Cellzome().H, 26, 12573},
		{"banded 8000x8000", banded, 26, 1021327},
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

// TestPeelHeapBound pins the peel's heap to |V|+|F|: one
// ShardedDecomposeCtx at 1 and at 2 shards allocates at most 48 bytes
// per vertex plus hyperedge on Cellzome, the 20000-protein proteome
// and the banded 8000×8000 file, the result included, so no working
// array of the peel may grow with the pins.
func TestPeelHeapBound(t *testing.T) {
	const bound = 48
	banded, err := mmio.ToHypergraph(gen.SyntheticMatrix(gen.MatrixSpec{Name: "bench", Rows: 8000, Cols: 8000, Band: 10, BandFill: 0.7, RandomPerRow: 2, Seed: 0xBE}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"Cellzome", dataset.Cellzome().H},
		{"proteome 20000x3000", dataset.SyntheticProteome(20000, 3000, 42)},
		{"banded 8000x8000", banded},
	} {
		elems := float64(tc.h.NumVertices() + tc.h.NumEdges())
		for _, shards := range []int{1, 2} {
			const runs = 3
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := core.ShardedDecomposeCtx(context.Background(), tc.h, core.ShardedOptions{Shards: shards}); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if per := float64(after.TotalAlloc-before.TotalAlloc) / runs / elems; per > bound {
				t.Errorf("%s: ShardedDecomposeCtx at %d shards allocates %.1f bytes per vertex plus hyperedge, want at most %d", tc.name, shards, per, bound)
			}
		}
	}
}

// stuckVote is a core.Rounds whose frontier vote never names a
// vertex: every Apply returns an empty retired delta, so no level
// fixpoint lowers the count of alive vertices RunRounds keeps.
type stuckVote struct{ levels int }

func (s *stuckVote) Apply(context.Context, int, []int32) ([]int32, error) {
	s.levels++
	if s.levels > 1000 {
		return nil, errors.New("RunRounds still raising k after 1000 levels")
	}
	return nil, nil
}
func (s *stuckVote) Shrink(context.Context, int, []int32) ([]int32, error) { return nil, nil }
func (s *stuckVote) Resume(err error) (int, []int32, error)                { return 0, nil, err }

// TestRunRoundsStopsAtDegreeBound requires RunRounds to reject a run
// whose votes leave a vertex alive at the fixpoint of level ΔV + 1,
// where no vertex survives, with an error naming the level, the count
// of vertices no retired delta named and the bound, after at most
// ΔV + 1 levels instead of raising k until cancelled.
func TestRunRoundsStopsAtDegreeBound(t *testing.T) {
	h := dataset.Cellzome().H
	maxDeg := h.MaxVertexDegree()
	r := &stuckVote{}
	_, err := core.RunRounds(context.Background(), r, h, nil, math.MaxInt)
	want := fmt.Sprintf("level %d ends with %d vertices that no retired delta named, but no vertex survives level ΔV + 1 = %d", maxDeg+1, h.NumVertices(), maxDeg+1)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("RunRounds error %v, want one containing %q", err, want)
	}
	if r.levels > maxDeg+1 {
		t.Fatalf("RunRounds ran %d levels, want at most ΔV + 1 = %d", r.levels, maxDeg+1)
	}
}
