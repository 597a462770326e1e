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
	Index int
	Desc          // owned vertices: the contiguous block [First, First+Count)
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
// construction.  On any error it returns (nil, err).
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
	for s := range p.Shards {
		p.Shards[s].Index = s
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

// Desc is a serializable shard descriptor: one contiguous owned vertex
// block, identified by its first vertex and length.  A []Desc is the
// whole partition in wire-ready form — a coordinator computes the
// balanced blocks once and ships descriptors, and every worker rebuilds
// the identical Partition with FromDescs regardless of the balancing
// heuristic's inputs.
type Desc struct {
	First int32 // first owned vertex ID
	Count int32 // owned vertex count
}

// Descs returns the partition's shard descriptors, in shard order.
func (p *Partition) Descs() []Desc {
	out := make([]Desc, len(p.Shards))
	for s := range p.Shards {
		out[s] = p.Shards[s].Desc
	}
	return out
}

// FromDescs rebuilds a Partition of h from shard descriptors.
func FromDescs(h *hypergraph.Hypergraph, descs []Desc) *Partition {
	p, err := FromDescsCtx(context.Background(), h, descs)
	if err != nil {
		// Unreachable for descriptors produced by Descs on the same
		// hypergraph under a background context; invalid wire input must
		// go through FromDescsCtx.
		panic(err)
	}
	return p
}

// FromDescsCtx is FromDescs honoring cancellation, deadline and any
// run.Budget attached to ctx.  The descriptors must cover h's vertices
// exactly with contiguous, ascending, non-empty blocks (except that a
// vertexless hypergraph is described by a single empty block); anything
// else — including descriptors from another hypergraph — returns an
// error, so a worker can reject a corrupt or mismatched assignment
// instead of building a partition that silently disagrees with the
// coordinator's.
func FromDescsCtx(ctx context.Context, h *hypergraph.Hypergraph, descs []Desc) (*Partition, error) {
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, 0); err != nil {
		return nil, err
	}
	if err := failpoint.Inject(fpBuild); err != nil {
		return nil, fmt.Errorf("partition: build from descriptors: %w", err)
	}
	nv, ne := h.NumVertices(), h.NumEdges()
	if len(descs) == 0 {
		return nil, fmt.Errorf("partition: no shard descriptors")
	}
	p := &Partition{
		H:           h,
		VertexOwner: make([]int32, nv),
		EdgeOwner:   make([]int32, ne),
		Shards:      make([]Shard, len(descs)),
	}
	next := int32(0)
	for s, d := range descs {
		p.Shards[s].Index = s
		if d.First != next || d.Count < 0 || int(next)+int(d.Count) > nv {
			return nil, fmt.Errorf("partition: shard %d descriptor [%d,+%d) does not continue the block cover at %d of %d vertices",
				s, d.First, d.Count, next, nv)
		}
		if d.Count == 0 && nv > 0 {
			return nil, fmt.Errorf("partition: shard %d descriptor is empty", s)
		}
		p.Shards[s].Desc = d
		for v := next; v < next+d.Count; v++ {
			p.VertexOwner[v] = int32(s)
		}
		next += d.Count
		if err := run.Tick(ctx, meter, int64(d.Count)+1); err != nil {
			return nil, err
		}
	}
	if int(next) != nv {
		return nil, fmt.Errorf("partition: descriptors cover %d of %d vertices", next, nv)
	}
	if err := p.assemble(ctx, meter); err != nil {
		return nil, err
	}
	return p, nil
}

// assemble anchors every hyperedge at the shard owning its first
// member, given an already-filled vertex block assignment.  A counting
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
