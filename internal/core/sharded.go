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

// This file is the in-process driver of every core route: it
// partitions the hypergraph into vertex-block shards
// (internal/partition) — one for the sequential routes, several for
// ShardedDecompose — gives one DistPeeler replica every shard, and
// runs the bulk-synchronous round loop of the internal/dist coordinator
// in the calling goroutine.  The phase methods are the replica's
// (distshard.go), the only copy of the BSP phases; this loop stands in
// for the coordinator's broadcasts, handing each round's dying and
// retired deltas straight back to the replica at the exchange
// barriers.  The round schedule does not depend on the shard count, so
// every shard count returns the same decomposition byte for byte, edge
// coreness included.

// fpShardedExchange fires at every exchange barrier, where a round's
// dying or retired delta is handed to the replica.
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

// ShardedDecompose computes the full core decomposition of h with the
// round loop over opts.Shards vertex blocks.  It runs Decompose's round
// schedule, so it equals Decompose byte for byte at every shard count,
// edge coreness included.
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
	return w.peel(ctx, kmax)
}

// peel assigns every shard to the replica and runs the round loop to
// the end, or to the fixpoint of threshold kmax, where every survivor
// gets coreness kmax, so each coreness is the full decomposition's
// capped at kmax.
func (w *DistPeeler) peel(ctx context.Context, kmax int) (*Decomposition, error) {
	for s := range w.shards {
		if err := w.AssignFresh(ctx, s); err != nil {
			return nil, err
		}
	}
	// The round loop of coordinator.round: it raises the threshold one
	// level at a time, carrying all peeling state across levels, and
	// peels each level in rounds until the frontier and the dying delta
	// are both empty.  One dying and one retired buffer serve every
	// round, each allocated once at its bound: a round's dying delta
	// lists each hyperedge at most once, its retired delta each vertex.
	dying := w.PendingDying(make([]int32, 0, len(w.eAlive)))
	retired := make([]int32, 0, len(w.vAlive))
	maxK := 0
levels:
	for k := 1; ; k++ {
		for {
			if err := exchange(); err != nil {
				return nil, err
			}
			if err := w.ApplyDying(ctx, k, dying); err != nil {
				return nil, err
			}
			frontier, alive, err := w.GatherFrontier(ctx)
			if err != nil {
				return nil, err
			}
			if frontier == 0 && len(dying) == 0 {
				if alive == 0 {
					break levels
				}
				maxK = k // level fixpoint: every alive vertex has degree ≥ k
				if k >= kmax {
					if err := w.stopAt(ctx, k); err != nil {
						return nil, err
					}
					break levels
				}
				break
			}
			retired = w.CollectRetired(retired[:0])
			if err := exchange(); err != nil {
				return nil, err
			}
			if err := w.ApplyRetired(ctx, retired); err != nil {
				return nil, err
			}
			if err := w.CheckShrunk(ctx); err != nil {
				return nil, err
			}
			dying = w.PendingDying(dying[:0])
		}
	}
	return &Decomposition{VertexCoreness: w.vCore, EdgeCoreness: w.eCore, MaxK: maxK}, nil
}

// exchange is the barrier at which a round's delta is handed to the
// replica; the failpoint makes the hand-off injectable.
func exchange() error {
	if err := failpoint.Inject(fpShardedExchange); err != nil {
		return fmt.Errorf("core: sharded exchange: %w", err)
	}
	return nil
}
