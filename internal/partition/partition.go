// Package partition splits a hypergraph into contiguous vertex-block
// shards for the sharded round loop (internal/core, sharded.go) and the
// distributed runtime (internal/dist).  Each shard owns a block of
// vertices and the hyperedges anchored in it; the owner of a vertex or
// hyperedge is the replica that keeps its degree and work lists.
// Blocks are balanced by pin weight (1 + d(v) per vertex), so a
// shard's share of the incidence structure — not just its vertex
// count — is even.
package partition

import (
	"context"
	"fmt"
	"runtime"

	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
)

// fpBuild fires at the start of every partition build, so chaos tests
// can fail or stall the construction before any shard exists.
var fpBuild = failpoint.Register("partition.build")

// buildCheckEvery bounds the work between two cancellation/budget
// checkpoints during a build.
const buildCheckEvery = 64

// Shard is one block of a Partition.  All IDs are the hypergraph's.
type Shard struct {
	First int32   // first owned vertex: the shard owns [First, First+Count)
	Count int32   // owned vertex count
	Edges []int32 // owned hyperedges, ascending (anchored at their first member)
}

// Partition is a disjoint cover of a hypergraph's vertices and
// hyperedges by shards.  Every vertex has exactly one owner; every
// hyperedge is owned by the shard of its first (lowest-ID) member, so
// edge ownership follows vertex ownership deterministically.
type Partition struct {
	H           *hypergraph.Hypergraph
	VertexOwner []int32 // shard index per vertex
	EdgeOwner   []int32 // shard index per hyperedge (empty edges → shard 0)
	Shards      []Shard
}

// NumShards returns the number of shards.
func (p *Partition) NumShards() int { return len(p.Shards) }

// NormalizeShards applies the shard-count policy the sharded and the
// distributed engines share: requests ≤ 0 select runtime.NumCPU(), and
// the count is clamped to the vertex count (at least one shard even for
// an empty hypergraph) and to 512.  Every phase of a round loops over
// the shards, so an absurd request would turn into per-round overhead
// and one arena per empty-handed shard rather than a finer partition.
func NormalizeShards(shards, numVertices int) int {
	if shards <= 0 {
		shards = runtime.NumCPU()
	}
	return max(min(shards, numVertices, 512), 1)
}

// Build partitions h into the requested number of shards (normalized
// by NormalizeShards).
func Build(h *hypergraph.Hypergraph, shards int) *Partition {
	p, err := BuildCtx(context.Background(), h, shards)
	if err != nil {
		// Only reachable through an armed failpoint: the background
		// context cannot be cancelled and carries no budget.
		panic(err)
	}
	return p
}

// BuildCtx is Build honoring cancellation, deadline and any run.Budget
// attached to ctx, checked at bounded intervals throughout the
// construction.  On any error it returns (nil, err).  The partition is
// a function of h's structure and the shard count alone, so a dist
// worker that holds the same hypergraph builds the coordinator's
// partition itself.
func BuildCtx(ctx context.Context, h *hypergraph.Hypergraph, shards int) (*Partition, error) {
	meter := run.MeterFrom(ctx)
	// Entry checkpoint: an already-cancelled context fails before any
	// work, even on inputs too small to reach a periodic checkpoint.
	if err := run.Tick(ctx, meter, 0); err != nil {
		return nil, err
	}
	if err := failpoint.Inject(fpBuild); err != nil {
		return nil, fmt.Errorf("partition: build: %w", err)
	}
	nv, ne := h.NumVertices(), h.NumEdges()
	shards = NormalizeShards(shards, nv)

	p := &Partition{
		H:           h,
		VertexOwner: make([]int32, nv),
		EdgeOwner:   make([]int32, ne),
		Shards:      make([]Shard, shards),
	}
	// Assign contiguous vertex blocks greedily by pin weight.  Closing
	// a block when the remaining vertices exactly match the remaining
	// shards guarantees every shard owns at least one vertex (shards ≤
	// nv after normalization keeps that reachable).
	target := (nv + h.NumPins() + shards - 1) / shards
	s, acc := 0, 0
	for v := 0; v < nv; v++ {
		if v%buildCheckEvery == 0 {
			if err := run.Tick(ctx, meter, buildCheckEvery); err != nil {
				return nil, err
			}
		}
		p.VertexOwner[v] = int32(s)
		p.Shards[s].Count++
		acc += 1 + h.VertexDegree(v)
		if rem := shards - s - 1; rem > 0 && (acc >= target || nv-v-1 == rem) {
			s++
			p.Shards[s].First = int32(v + 1)
			acc = 0
		}
	}
	if err := p.assemble(ctx, meter); err != nil {
		return nil, err
	}
	return p, nil
}

// assemble anchors every hyperedge at the shard owning its first
// member, given the filled vertex block assignment.  A counting
// pass sizes the shards' hyperedge lists, which then share one exactly
// sized array.
func (p *Partition) assemble(ctx context.Context, meter *run.Meter) error {
	ne := p.H.NumEdges()
	count := make([]int, len(p.Shards))
	for f := 0; f < ne; f++ {
		if f%buildCheckEvery == 0 {
			if err := run.Tick(ctx, meter, buildCheckEvery); err != nil {
				return err
			}
		}
		owner := int32(0)
		if members := p.H.Vertices(f); len(members) > 0 {
			owner = p.VertexOwner[members[0]]
		}
		p.EdgeOwner[f] = owner
		count[owner]++
	}
	edges := make([]int32, ne)
	for s, n := range count {
		p.Shards[s].Edges = edges[:0:n]
		edges = edges[n:]
	}
	//hyperplexvet:ignore budgettick bounded: a second pass over the hyperedges the loop above charged
	for f, owner := range p.EdgeOwner {
		p.Shards[owner].Edges = append(p.Shards[owner].Edges, int32(f))
	}
	return nil
}
