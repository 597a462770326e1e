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
	// Shards is the number of vertex blocks, under the shard-count
	// policy of partition.NormalizeShards: ≤ 0 selects
	// runtime.NumCPU(), and the count is clamped to the vertex count
	// and to 512.
	Shards int
	// Deprecated: ShardedDecomposeCtx runs every shard's phases in the
	// calling goroutine, so nothing reads Workers.
	Workers int
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
	return decompose(ctx, h, opts.Shards, 1, math.MaxInt)
}

// decompose computes, over the given number of shards (normalized by
// partition.NormalizeShards), the decomposition of h whose level k is
// the (k, l)-core, stopped at level kmax ≥ 1 (see RunRounds);
// math.MaxInt peels every level.
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
	return w.peel(ctx, h, kmax)
}

// peel restores the replica, which was built over h, from empty logs
// with every shard, and runs the round schedule from the barrier (0, 0)
// that leaves it at to the end, or to the fixpoint of threshold kmax.
func (w *DistPeeler) peel(ctx context.Context, h *hypergraph.Hypergraph, kmax int) (*Decomposition, error) {
	all := make([]int32, w.part.NumShards())
	for s := range all {
		all[s] = int32(s)
	}
	if err := w.Restore(ctx, nil, nil, all); err != nil {
		return nil, err
	}
	return RunRounds(ctx, w, h, w.PendingDying(), kmax)
}

// Rounds is one driver of the round schedule RunRounds runs: a
// DistPeeler that owns every shard, or the internal/dist coordinator,
// which broadcasts each call to its workers and joins their replies.
type Rounds interface {
	// Apply applies a round's dying delta at threshold k and returns
	// the frontier vote: the round's retired delta, every alive vertex
	// whose degree fell below k.  The retired delta is valid until the
	// next Apply.
	Apply(ctx context.Context, k int, dying []int32) (retired []int32, err error)
	// Shrink applies the round's retired delta, ends the round at a
	// barrier, and returns the next round's dying delta.
	Shrink(ctx context.Context, k int, retired []int32) ([]int32, error)
	// Resume answers a failed call with the last committed barrier's k
	// and dying delta, from which the schedule replays, or returns the
	// error when the failure is not recoverable.
	Resume(err error) (k int, dying []int32, rerr error)
}

// RunRounds runs the round schedule over h from barrier 0, whose dying
// delta is dying, and returns the decomposition it records.  It raises
// the threshold k one level at a time, carrying all peeling state
// across levels, and peels each level in rounds until the retired and
// the dying delta are both empty: the level fixpoint, where every alive
// vertex has degree ≥ k.  It counts the vertices alive, those no
// retired delta it recorded has named yet, and stops at a fixpoint
// where that count is 0, or at the fixpoint of level kmax with MaxK =
// kmax.  There every alive vertex has degree ≥ kmax and every alive
// hyperedge is maximal, so the survivors, every vertex and hyperedge
// no delta named, are the kmax-core: each gets coreness kmax, charged
// one step, so each coreness is the full decomposition's capped at
// kmax.  A failed call goes to r.Resume.
//
// What leaves at threshold k belonged to the (k-1)-core: every
// hyperedge of a dying delta handed to Apply at k, and every vertex of
// the retired delta Apply returns at k, gets coreness k-1.  A round
// replayed after Resume hands out the same deltas at the same k, so it
// records the same values again and counts no vertex twice.
//
// No vertex survives level ΔV + 1, h's largest vertex degree plus
// one, so a count above 0 at that fixpoint means a driver left a
// vertex out of its retired deltas, and RunRounds returns an error
// instead of raising k forever.
func RunRounds(ctx context.Context, r Rounds, h *hypergraph.Hypergraph, dying []int32, kmax int) (*Decomposition, error) {
	d := &Decomposition{VertexCoreness: make([]int, h.NumVertices()), EdgeCoreness: make([]int, h.NumEdges())}
	// Until a delta names it, a vertex or hyperedge holds coreness -1: a
	// vertex so marked is counted in alive, so the count needs no array
	// of its own, and whatever is so marked at kmax survives there.
	alive := len(d.VertexCoreness)
	for v := range d.VertexCoreness {
		d.VertexCoreness[v] = -1
	}
	for f := range d.EdgeCoreness {
		d.EdgeCoreness[f] = -1
	}
	maxDeg := h.MaxVertexDegree()
	k := 1
	for {
		var retired []int32
		err := exchange()
		if err == nil {
			for _, g := range dying {
				d.EdgeCoreness[g] = k - 1
			}
			retired, err = r.Apply(ctx, k, dying)
		}
		if err == nil && len(retired) == 0 && len(dying) == 0 {
			if alive == 0 {
				return d, nil
			}
			if k > maxDeg {
				return nil, fmt.Errorf("core: level %d ends with %d vertices that no retired delta named, but no vertex survives level ΔV + 1 = %d", k, alive, maxDeg+1)
			}
			d.MaxK = k
			if k >= kmax {
				break
			}
			k++
			continue
		}
		if err == nil {
			for _, v := range retired {
				if d.VertexCoreness[v] < 0 {
					alive--
				}
				d.VertexCoreness[v] = k - 1
			}
			err = exchange()
		}
		if err == nil {
			dying, err = r.Shrink(ctx, k, retired)
		}
		if err != nil {
			if k, dying, err = r.Resume(err); err != nil {
				return nil, err
			}
			k = max(k, 1)
		}
	}
	// The run stopped at the fixpoint of level kmax, d.MaxK: the
	// survivors are the kmax-core.
	n := 0
	for v, c := range d.VertexCoreness {
		if c < 0 {
			d.VertexCoreness[v] = d.MaxK
			n++
		}
	}
	for f, c := range d.EdgeCoreness {
		if c < 0 {
			d.EdgeCoreness[f] = d.MaxK
			n++
		}
	}
	if err := run.Tick(ctx, run.MeterFrom(ctx), int64(n)); err != nil {
		return nil, err
	}
	return d, nil
}

// exchange is the barrier at which a round's delta is handed to the
// driver; the failpoint makes the hand-off injectable.
func exchange() error {
	if err := failpoint.Inject(fpShardedExchange); err != nil {
		return fmt.Errorf("core: sharded exchange: %w", err)
	}
	return nil
}
