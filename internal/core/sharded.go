package core

import (
	"context"
	"fmt"
	"math"

	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/partition"
	"hyperplex/internal/run"
)

// This file holds the one round schedule, RunRounds, the only code
// that raises the peeling threshold or detects a level fixpoint, and
// the in-process driver of every core route: it partitions the
// hypergraph into vertex-block shards (internal/partition) — one for
// the sequential routes, several for ShardedDecompose — and runs
// RunRounds over one DistPeeler replica that owns every shard.  The
// internal/dist coordinator runs RunRounds over its worker pool.  The
// phase methods are the replica's (distshard.go), the only copy of the
// BSP phases.  The schedule does not depend on the shard or worker
// count, so every driver returns the same decomposition byte for byte,
// edge coreness included.

// fpShardedExchange fires at every exchange barrier of RunRounds,
// before a round's dying or retired delta is handed to the driver.
var fpShardedExchange = failpoint.Register("core.sharded.exchange")

// maxShards caps the shard count: every phase loops over the shards,
// so an absurd request would turn into per-round overhead and one
// arena per empty-handed shard rather than a finer partition.
const maxShards = 512

// WorkerPanicError reports a panic recovered at a parallel worker
// boundary: the computation is abandoned but the panic surfaces as an
// error instead of crossing goroutines, and no worker is leaked.
type WorkerPanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking worker
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("core: parallel worker panic: %v", e.Value)
}

// ShardedOptions configures the sharded decomposition.
type ShardedOptions struct {
	// Shards is the number of vertex blocks: ≤ 0 selects
	// runtime.NumCPU(), and the count is clamped to the vertex count
	// and to 512 (every phase loops over the shards).
	Shards int
	// Deprecated: ShardedDecomposeCtx runs every shard's phases in the
	// calling goroutine, so nothing reads Workers.
	Workers int
}

// normalizeShardCount applies the documented shard policy of
// ShardedOptions.Shards.
func normalizeShardCount(shards, numVertices int) int {
	shards = partition.NormalizeShards(shards, numVertices)
	if shards > maxShards {
		shards = maxShards
	}
	return shards
}

// ShardedDecompose computes the full core decomposition of h over
// opts.Shards vertex blocks.  It runs Decompose's round schedule, so it
// equals Decompose byte for byte at every shard count, edge coreness
// included.
func ShardedDecompose(h *hypergraph.Hypergraph, opts ShardedOptions) *Decomposition {
	d, err := ShardedDecomposeCtx(context.Background(), h, opts)
	if err != nil {
		// Only reachable through an armed failpoint: a background
		// context cannot be cancelled and carries no budget.
		panic(err)
	}
	return d
}

// ShardedDecomposeCtx is ShardedDecompose honoring cancellation,
// deadline and any run.Budget attached to ctx, checked inside every
// phase.  On any error it returns (nil, err): the half-peeled state is
// not a valid decomposition.
func ShardedDecomposeCtx(ctx context.Context, h *hypergraph.Hypergraph, opts ShardedOptions) (*Decomposition, error) {
	return decompose(ctx, h, normalizeShardCount(opts.Shards, h.NumVertices()), 1, math.MaxInt)
}

// decompose computes, over the given number of shards, the
// decomposition of h whose level k is the (k, l)-core, stopped at
// level kmax ≥ 1 (see DistPeeler.peel); math.MaxInt peels every level.
// On any error it returns (nil, err): the half-peeled state is not a
// valid decomposition.
func decompose(ctx context.Context, h *hypergraph.Hypergraph, shards, l, kmax int) (*Decomposition, error) {
	// Entry checkpoint: an already-cancelled context fails before the
	// partition is built.
	if err := run.Tick(ctx, run.MeterFrom(ctx), 0); err != nil {
		return nil, err
	}
	part, err := partition.BuildCtx(ctx, h, shards)
	if err != nil {
		return nil, err
	}
	w := NewDistPeeler(h, part)
	w.minSize = l
	return w.peel(ctx, kmax, h.MaxVertexDegree())
}

// peel assigns every shard to the replica and runs the round schedule
// to the end, or to the fixpoint of threshold kmax, where every
// survivor gets coreness kmax, so each coreness is the full
// decomposition's capped at kmax.  maxDeg is the hypergraph's ΔV.
func (w *DistPeeler) peel(ctx context.Context, kmax, maxDeg int) (*Decomposition, error) {
	for s := range w.shards {
		if err := w.AssignFresh(ctx, s); err != nil {
			return nil, err
		}
	}
	maxK, err := RunRounds(ctx, w, w.pendingDying(), kmax, maxDeg)
	if err == nil && maxK >= kmax {
		err = w.stopAt(ctx, maxK)
	}
	if err != nil {
		return nil, err
	}
	return &Decomposition{VertexCoreness: w.vCore, EdgeCoreness: w.eCore, MaxK: maxK}, nil
}

// Rounds is one driver of the round schedule RunRounds runs: a
// DistPeeler that owns every shard, or the internal/dist coordinator,
// which broadcasts each call to its workers and sums their replies.
type Rounds interface {
	// Apply applies a round's dying delta at threshold k and returns
	// the frontier vote: the frontier size and the alive vertices.
	Apply(ctx context.Context, k int, dying []int32) (frontier, alive int, err error)
	// Retire returns the retired delta of the round at threshold k.
	Retire(ctx context.Context, k int) ([]int32, error)
	// Shrink applies the round's retired delta, ends the round at a
	// barrier, and returns the next round's dying delta.
	Shrink(ctx context.Context, k int, retired []int32) ([]int32, error)
	// Resume answers a failed call with the last committed barrier's k
	// and dying delta, from which the schedule replays, or returns the
	// error when the failure is not recoverable.
	Resume(err error) (k int, dying []int32, rerr error)
}

// RunRounds runs the round schedule from barrier 0, whose dying delta
// is dying.  It raises the threshold k one level at a time, carrying
// all peeling state across levels, and peels each level in rounds
// until the frontier and the dying delta are both empty: the level
// fixpoint, where every alive vertex has degree ≥ k.  It stops at a
// fixpoint with nothing alive, returning MaxK, or at the fixpoint of
// level kmax, returning kmax.  A failed call goes to r.Resume.
//
// maxDeg is ΔV, the hypergraph's largest vertex degree.  No vertex
// survives level ΔV + 1, so a vote that keeps a vertex alive at that
// fixpoint is wrong, and RunRounds returns an error instead of raising
// k forever.
func RunRounds(ctx context.Context, r Rounds, dying []int32, kmax, maxDeg int) (maxK int, err error) {
	k := 1
	for {
		frontier, alive := 0, 0
		if err = exchange(); err == nil {
			frontier, alive, err = r.Apply(ctx, k, dying)
		}
		if err == nil && frontier == 0 && len(dying) == 0 {
			if alive == 0 {
				return maxK, nil
			}
			if k > maxDeg {
				return 0, fmt.Errorf("core: level %d ends with vertices alive (the vote counts %d), but no vertex survives level ΔV + 1 = %d", k, alive, maxDeg+1)
			}
			maxK = k
			if k >= kmax {
				return maxK, nil
			}
			k++
			continue
		}
		var retired []int32
		if err == nil {
			retired, err = r.Retire(ctx, k)
		}
		if err == nil {
			err = exchange()
		}
		if err == nil {
			dying, err = r.Shrink(ctx, k, retired)
		}
		if err != nil {
			if k, dying, err = r.Resume(err); err != nil {
				return 0, err
			}
			k = max(k, 1)
		}
	}
}

// exchange is the barrier at which a round's delta is handed to the
// driver; the failpoint makes the hand-off injectable.
func exchange() error {
	if err := failpoint.Inject(fpShardedExchange); err != nil {
		return fmt.Errorf("core: sharded exchange: %w", err)
	}
	return nil
}
