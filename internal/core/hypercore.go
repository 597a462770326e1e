package core

import (
	"context"

	"hyperplex/internal/csr"
	"hyperplex/internal/hypergraph"
)

// Result describes a k-core of a hypergraph as membership slices over
// the ORIGINAL vertex and hyperedge IDs.
type Result struct {
	// K is the threshold this core was computed for.
	K int
	// VertexIn[v] reports whether vertex v survives in the k-core.
	VertexIn []bool
	// EdgeIn[f] reports whether hyperedge f survives in the k-core.
	EdgeIn []bool
	// NumVertices and NumEdges count the survivors.
	NumVertices int
	NumEdges    int
}

// Sub materializes the core as a sub-hypergraph of h (with old→new ID
// maps), for callers that want to keep analyzing it.
func (r *Result) Sub(h *hypergraph.Hypergraph) (*hypergraph.Hypergraph, map[int]int, map[int]int) {
	return h.Sub(r.VertexIn, r.EdgeIn)
}

// Decomposition is the full core decomposition of a hypergraph.
type Decomposition struct {
	// VertexCoreness[v] is the largest k such that v is in the k-core
	// (0 if v is not even in the 1-core).
	VertexCoreness []int
	// EdgeCoreness[f] is the largest k such that hyperedge f is in the
	// k-core (0 if f does not survive reduction of the 1-core).
	EdgeCoreness []int
	// MaxK is the maximum k with a non-empty k-core.
	MaxK int
}

// Core extracts the k-core recorded in the decomposition.  For k ≤ 0
// it returns the 0-core, labeled K = 0: the reduced hypergraph without
// isolated vertices, which has exactly the 1-core's sets (a vertex
// left in no surviving hyperedge is the only thing the 1-core peels).
func (d *Decomposition) Core(k int) *Result {
	r := &Result{
		K:        max(k, 0),
		VertexIn: make([]bool, len(d.VertexCoreness)),
		EdgeIn:   make([]bool, len(d.EdgeCoreness)),
	}
	k = max(k, 1)
	for v, c := range d.VertexCoreness {
		if c >= k {
			r.VertexIn[v] = true
			r.NumVertices++
		}
	}
	for f, c := range d.EdgeCoreness {
		if c >= k {
			r.EdgeIn[f] = true
			r.NumEdges++
		}
	}
	return r
}

// CoreLevel is one row of a core-decomposition profile: the size of
// the k-core at each level.
type CoreLevel struct {
	K        int
	Vertices int
	Edges    int
}

// Profile returns the k-core sizes for k = 1..MaxK (the number of
// vertices and hyperedges with coreness ≥ k) — the data behind "core
// hierarchy" plots.
func (d *Decomposition) Profile() []CoreLevel {
	levels := make([]CoreLevel, d.MaxK)
	for i := range levels {
		levels[i].K = i + 1
	}
	for _, c := range d.VertexCoreness {
		for k := 1; k <= c && k <= d.MaxK; k++ {
			levels[k-1].Vertices++
		}
	}
	for _, c := range d.EdgeCoreness {
		for k := 1; k <= c && k <= d.MaxK; k++ {
			levels[k-1].Edges++
		}
	}
	return levels
}

// decomposeL computes the decomposition whose level k is the
// (k, l)-core of h, with csr.DecomposeCtx: the hypergraph is viewed as
// a csr.CSR (the pins are aliased) and peeled by the one sequential
// peeler.  Every sequential route reads its answer off this call.
func decomposeL(ctx context.Context, h *hypergraph.Hypergraph, l int) (*Decomposition, error) {
	fd, err := csr.DecomposeCtx(ctx, csr.FromH(h), l)
	if err != nil {
		return nil, err
	}
	d := &Decomposition{
		VertexCoreness: make([]int, len(fd.VertexCoreness)),
		EdgeCoreness:   make([]int, len(fd.EdgeCoreness)),
		MaxK:           fd.MaxK,
	}
	for v, c := range fd.VertexCoreness {
		d.VertexCoreness[v] = int(c)
	}
	for f, c := range fd.EdgeCoreness {
		d.EdgeCoreness[f] = int(c)
	}
	return d, nil
}

// KCore computes the k-core of h and returns the surviving membership.
// k must be ≥ 0; the 0-core is the reduced hypergraph with isolated
// vertices removed.  It reads the core off the full decomposition
// (Decompose), so every sequential route runs the one peeler.
func KCore(h *hypergraph.Hypergraph, k int) *Result {
	r, err := KCoreCtx(context.Background(), h, k)
	if err != nil {
		// Only reachable through an armed failpoint: a background
		// context cannot be cancelled and carries no budget.
		panic(err)
	}
	return r
}

// KCoreCtx is KCore honoring cancellation, deadline and any run.Budget
// attached to ctx (see run.WithBudget), checked every bounded number of
// peel operations.  On cancellation or budget exhaustion it returns
// (nil, err): a partially peeled state is not a valid core of any k, so
// no partial result is exposed.
func KCoreCtx(ctx context.Context, h *hypergraph.Hypergraph, k int) (*Result, error) {
	return BiCoreCtx(ctx, h, k, 1)
}

// Decompose computes the full core decomposition of h with the
// bucket-queue peeler csr.Decompose.  It equals ShardedDecompose and
// the distributed DistPeeler byte for byte, edge coreness included:
// all of them run one round schedule.
func Decompose(h *hypergraph.Hypergraph) *Decomposition {
	d, err := DecomposeCtx(context.Background(), h)
	if err != nil {
		panic(err) // only reachable through an armed failpoint
	}
	return d
}

// DecomposeCtx is Decompose honoring cancellation, deadline and any
// run.Budget attached to ctx, checked every bounded number of peel
// operations (the csr.build and csr.peel checkpoint sites).  On
// cancellation or budget exhaustion it returns (nil, err).
func DecomposeCtx(ctx context.Context, h *hypergraph.Hypergraph) (*Decomposition, error) {
	return decomposeL(ctx, h, 1)
}

// CSRDecompose is Decompose, under the name of the flat-array kernel
// it runs.
func CSRDecompose(h *hypergraph.Hypergraph) *Decomposition { return Decompose(h) }

// CSRDecomposeCtx is DecomposeCtx, under the name of the flat-array
// kernel it runs.
func CSRDecomposeCtx(ctx context.Context, h *hypergraph.Hypergraph) (*Decomposition, error) {
	return DecomposeCtx(ctx, h)
}

// MaxCore returns the maximum core of h: the largest k with a
// non-empty k-core, and that core's membership.  When even the 1-core
// is empty it returns the (empty) 0-core.
func MaxCore(h *hypergraph.Hypergraph) *Result {
	r, err := MaxCoreCtx(context.Background(), h)
	if err != nil {
		panic(err) // only reachable through an armed failpoint
	}
	return r
}

// MaxCoreCtx is MaxCore honoring cancellation, deadline and any
// run.Budget attached to ctx.  On cancellation or budget exhaustion it
// returns (nil, err).
func MaxCoreCtx(ctx context.Context, h *hypergraph.Hypergraph) (*Result, error) {
	d, err := DecomposeCtx(ctx, h)
	if err != nil {
		return nil, err
	}
	return d.Core(d.MaxK), nil
}
