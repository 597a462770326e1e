package csr

import (
	"context"
	"fmt"

	"hyperplex/internal/failpoint"
	"hyperplex/internal/run"
)

// This file is the sequential decomposition kernel: a lazy bucket-queue
// peeler over a CSR, without maps, per-level vertex scans, or
// per-deletion allocations.  All mutable state lives in a single int32
// arena carved into slices up front.
//
// The equivalence with the paper's level-by-level peeler (kept as the
// reference in internal/check): popping the minimum-degree vertex v at
// degree d and setting core = max(core, d) assigns v the coreness the
// level peeler assigns when it deletes v while raising the threshold to
// core+1; hyperedges deleted in the cascade get the same level's
// coreness (core).  The fixpoint is confluent, so the vertex coreness
// and MaxK are identical.
//
// The peel runs in rounds, the schedule of the sharded and distributed
// engines in internal/core.  A vertex deletion changes no other
// vertex's degree — it only shrinks hyperedges, which are queued as
// pending — so the vertices popped between two containment rounds are
// exactly the alive vertices at degree ≤ core: the sharded frontier.
// A round tests every pending hyperedge once against the unchanged
// state, collects the dead ones and only then deletes them, and the
// level rises only when no vertex is at or below it and nothing is
// pending.  The reduction tie-break then keeps the same member of each
// equal-set family as those engines, so the three return the same
// decomposition, edge coreness included.

// fpBuild fires at the checkpoints of the construction phase (arena
// setup and initial reduction), before the first vertex pops.
var fpBuild = failpoint.Register("csr.build")

// fpPeel fires at the checkpoints of the peel loop proper.
var fpPeel = failpoint.Register("csr.peel")

// peelCheckEvery bounds the elementary operations between two
// cancellation/budget checkpoints.
const peelCheckEvery = 64

// Decomposition is the full core decomposition of a CSR, in the flat
// int32 layout the kernel produces.  Local IDs index it; callers
// holding a CSR block map them back through VertexID/EdgeID.
type Decomposition struct {
	// VertexCoreness[v] is the largest k such that v is in the k-core.
	VertexCoreness []int32
	// EdgeCoreness[f] is the largest k such that hyperedge f is in the
	// k-core (0 if f does not survive reduction of the 1-core).
	EdgeCoreness []int32
	// MaxK is the maximum k with a non-empty k-core.
	MaxK int
}

// peelAbort unwinds the peel when a checkpoint trips; it is recovered
// at the Ctx API boundary and never escapes the package.
type peelAbort struct{ err error }

// recoverPeelAbort converts a checkpoint abort into the returned
// error, leaving any other panic untouched.
func recoverPeelAbort(err *error) {
	if x := recover(); x != nil {
		a, ok := x.(peelAbort)
		if !ok {
			panic(x)
		}
		*err = a.err
	}
}

// peeler is the kernel state.  The bucket queue is lazy: a vertex is
// pushed again on every degree decrement and stale entries (degree or
// liveness mismatch) are skipped at pop time, so the entry arena is
// bounded by |V| + |E| (one initial push per vertex, at most one push
// per pin).
type peeler struct {
	c *CSR
	//hyperplexvet:ignore ctxfirst scoped to one DecomposeCtx call; threading ctx through every cascade helper would bloat the hot path
	ctx        context.Context
	meter      *run.Meter
	checkpoint func(n int) // phase-specific: build or peel failpoint
	ops        int

	vAlive, eAlive []bool
	vDeg, eDeg     []int32
	vCore, eCore   []int32

	// Bucket queue: head[d] is the top entry index of degree-d bucket,
	// next links entries, item holds the vertex of each entry.
	head, next, item []int32
	nfree            int32 // next unused entry slot
	cur              int   // lowest possibly-non-empty bucket

	// Round state: pending lists the alive hyperedges shrunk since the
	// last containment round, each once (pstamp[f] == round marks f as
	// listed).  Both are carved from the arena; pending never exceeds
	// ne entries.
	pending []int32
	pstamp  []int32
	round   int32

	// Containment test (contain.go): det's stamps are carved from the
	// arena and snap views the peel arrays above.
	det  Detector
	snap Snapshot

	// mem mirrors the CSR's edge→vertex rows with each row sorted by
	// ascending static vertex row length, so the detector finds the
	// witnesses with the shortest candidate scans in O(1) expected
	// members instead of scanning the whole row.
	mem []int32

	// minSize is the l of a (k, l)-core: a pending hyperedge with fewer
	// alive members dies at the end of its round.  l ≤ 1 leaves only
	// the empty hyperedge, which the detector retires anyway.
	minSize int

	core   int
	aliveV int
}

// charge accrues n elementary operations and fires the current phase's
// checkpoint once the accumulator crosses the threshold.  The common
// case is a plain add-and-compare, so the indirect checkpoint call is
// off the hot path.
func (p *peeler) charge(n int) {
	p.ops += n
	if p.ops >= peelCheckEvery {
		p.checkpoint(0)
	}
}

func (p *peeler) checkpointBuild(n int) {
	p.ops += n
	if p.ops < peelCheckEvery {
		return
	}
	charge := int64(p.ops)
	p.ops = 0
	if err := failpoint.Inject(fpBuild); err != nil {
		//hyperplexvet:ignore nopanic peelAbort unwinds the construction and is recovered at the Ctx API boundary
		panic(peelAbort{fmt.Errorf("csr: build: %w", err)})
	}
	if err := run.Tick(p.ctx, p.meter, charge); err != nil {
		//hyperplexvet:ignore nopanic peelAbort unwinds the construction and is recovered at the Ctx API boundary
		panic(peelAbort{err})
	}
}

func (p *peeler) checkpointPeel(n int) {
	p.ops += n
	if p.ops < peelCheckEvery {
		return
	}
	charge := int64(p.ops)
	p.ops = 0
	if err := failpoint.Inject(fpPeel); err != nil {
		//hyperplexvet:ignore nopanic peelAbort unwinds the cascade and is recovered at the Ctx API boundary
		panic(peelAbort{fmt.Errorf("csr: peel: %w", err)})
	}
	if err := run.Tick(p.ctx, p.meter, charge); err != nil {
		//hyperplexvet:ignore nopanic peelAbort unwinds the cascade and is recovered at the Ctx API boundary
		panic(peelAbort{err})
	}
}

// newPeeler allocates the arena, fills the bucket queue from the
// initial degrees and performs the initial reduction (empty,
// non-maximal and, for l > 1, undersized hyperedges die at coreness
// 0): round 0, with every hyperedge pending.
func newPeeler(ctx context.Context, c *CSR, l int) *peeler {
	// Entry checkpoint: an already-cancelled context aborts before any
	// work, even on inputs too small to reach a periodic checkpoint.
	if err := run.Tick(ctx, run.MeterFrom(ctx), 0); err != nil {
		//hyperplexvet:ignore nopanic peelAbort unwinds the construction and is recovered at the Ctx API boundary
		panic(peelAbort{err})
	}
	nv, ne, pins := c.NumVertices(), c.NumEdges(), c.NumPins()
	p := &peeler{
		c:       c,
		ctx:     ctx,
		meter:   run.MeterFrom(ctx),
		vAlive:  make([]bool, nv),
		eAlive:  make([]bool, ne),
		aliveV:  nv,
		minSize: l,
	}
	p.checkpoint = p.checkpointBuild

	maxDeg := 0
	for v := 0; v < nv; v++ {
		if d := int(c.VertexDegree(int32(v))); d > maxDeg {
			maxDeg = d
		}
	}
	maxEDeg := 0
	for f := 0; f < ne; f++ {
		if d := int(c.EdgeDegree(int32(f))); d > maxEDeg {
			maxEDeg = d
		}
	}

	// One arena allocation backs every int32 slice of the kernel; the
	// bucket entry arena is sized for the lazy queue's worst case
	// (|V| initial pushes + one push per pin decrement).
	entries := nv + pins
	arena := make([]int32, 3*nv+5*ne+(maxDeg+1)+2*entries+pins)
	carve := func(n int) []int32 {
		s := arena[:n:n]
		arena = arena[n:]
		return s
	}
	p.vDeg = carve(nv)
	p.eDeg = carve(ne)
	p.vCore = carve(nv)
	p.eCore = carve(ne)
	p.head = carve(maxDeg + 1)
	p.next = carve(entries)
	p.item = carve(entries)
	p.pending = carve(ne)[:0]
	p.pstamp = carve(ne)
	p.det = Detector{stamp: carve(nv), estamp: carve(ne)}
	p.mem = carve(pins)
	p.snap = Snapshot{C: c, Rows: p.mem, VAlive: p.vAlive, EDeg: p.eDeg}

	// Witness rows: each hyperedge's members sorted by ascending static
	// vertex row length (insertion sort; rows are short).  The detector
	// scans candidates over a witness's static CSR row, so the cheapest
	// witnesses are the members with the shortest rows — a property of
	// the immutable CSR, computable once here.
	copy(p.mem, c.EAdj)
	for f := 0; f < ne; f++ {
		p.charge(1)
		row := p.mem[c.EOff[f]:c.EOff[f+1]]
		for i := 1; i < len(row); i++ {
			p.charge(1)
			w := row[i]
			lw := c.VOff[w+1] - c.VOff[w]
			j := i - 1
			for ; j >= 0 && c.VOff[row[j]+1]-c.VOff[row[j]] > lw; j-- {
				row[j+1] = row[j]
			}
			row[j+1] = w
		}
	}

	for i := range p.head {
		p.head[i] = -1
	}
	for v := 0; v < nv; v++ {
		p.vAlive[v] = true
		p.vDeg[v] = c.VertexDegree(int32(v))
	}
	for f := 0; f < ne; f++ {
		p.eAlive[f] = true
		p.eDeg[f] = c.EdgeDegree(int32(f))
	}
	for v := int32(0); int(v) < nv; v++ {
		p.push(v, int(p.vDeg[v]))
	}

	// Initial reduction: round 0 lists every hyperedge, so the
	// containment tests all see the original incidence state.  The
	// zeroed stamps match no later round, which starts at 1.
	for f := int32(0); int(f) < ne; f++ {
		p.pending = append(p.pending, f)
	}
	p.endRound()
	return p
}

// push records that vertex v now has degree d.  Entries are never
// removed eagerly; pops skip entries whose recorded degree is stale.
//
//hyperplexvet:hotpath
func (p *peeler) push(v int32, d int) {
	idx := p.nfree
	p.nfree++
	p.item[idx] = v
	p.next[idx] = p.head[d]
	p.head[d] = idx
	if d < p.cur {
		p.cur = d
	}
}

// deleteEdge removes alive hyperedge f at the current core level: its
// alive members lose one degree and are re-pushed at their new bucket.
//
//hyperplexvet:hotpath
func (p *peeler) deleteEdge(f int32) {
	p.charge(1)
	p.eAlive[f] = false
	p.eDeg[f] = 0 // lets the detector's degree filter skip dead candidates
	p.eCore[f] = int32(p.core)
	for _, w := range p.c.EdgeVertices(f) {
		if !p.vAlive[w] {
			continue
		}
		p.vDeg[w]--
		p.push(w, int(p.vDeg[w]))
	}
}

// deleteVertex removes alive vertex v at the current core level and
// shrinks every alive hyperedge containing it, listing each as pending
// once per round.  Its containment test waits for the end of the
// round (endRound): only a hyperedge that lost an alive member can
// have become empty or contained in another, and it is tested once per
// round instead of once per member lost.
//
//hyperplexvet:hotpath
func (p *peeler) deleteVertex(v int32) {
	p.charge(1)
	p.vAlive[v] = false
	p.vCore[v] = int32(p.core)
	p.aliveV--
	for _, f := range p.c.VertexEdges(v) {
		if !p.eAlive[f] {
			continue
		}
		p.eDeg[f]--
		if p.pstamp[f] != p.round {
			p.pstamp[f] = p.round
			p.pending = append(p.pending, f)
		}
	}
}

// endRound is the containment round: each pending hyperedge below the
// minimum size dies untested, every other one is tested once
// (Detector.Dead) against the unchanged snapshot, the dead ones are
// collected — compacted in place at the front of the pending list —
// and only then deleted at the current level.  This is the
// collect-then-delete rule of the sharded check phase, so the
// equal-set tie-break sees the same state in every engine.
//
//hyperplexvet:hotpath
func (p *peeler) endRound() {
	dead := p.pending[:0]
	for _, f := range p.pending {
		d, ops := int(p.eDeg[f]) < p.minSize, 0
		if !d {
			d, ops = p.det.Dead(&p.snap, f)
		}
		p.charge(1 + ops)
		if d {
			dead = append(dead, f)
		}
	}
	for _, f := range dead {
		p.deleteEdge(f)
	}
	p.pending = p.pending[:0]
	p.round++
}

// peel drains the bucket queue: repeatedly pop a minimum-degree alive
// vertex, raise the core level to its degree if higher, and delete it.
// Before the level rises, and after the last vertex, the round ends;
// its deaths can push vertices back to or below the current level, so
// the level rises only once no vertex is there and nothing is pending.
//
//hyperplexvet:hotpath
func (p *peeler) peel() {
	p.checkpoint = p.checkpointPeel
	for p.aliveV > 0 {
		for p.head[p.cur] == -1 {
			p.cur++
		}
		if p.cur > p.core && len(p.pending) > 0 {
			p.endRound()
			continue
		}
		idx := p.head[p.cur]
		p.head[p.cur] = p.next[idx]
		v := p.item[idx]
		// Each pop is charged here: a bucket full of stale entries would
		// otherwise drain through the continue below with no checkpoint.
		p.charge(1)
		if !p.vAlive[v] || int(p.vDeg[v]) != p.cur {
			continue // stale entry: v died or was decremented since
		}
		if p.cur > p.core {
			p.core = p.cur
		}
		p.deleteVertex(v)
	}
	p.endRound()
}

// Decompose computes the full core decomposition of c with the
// bucket-queue peeler, the one sequential peeler of the repository.
// Hyperedges with fewer than l alive members die as well, so every
// level k of the result is the (k, l)-core; l ≤ 1 gives the plain
// k-core decomposition, which is exactly the decomposition of the
// sharded and distributed engines: they run the same rounds.
func Decompose(c *CSR, l int) *Decomposition {
	d, err := DecomposeCtx(context.Background(), c, l)
	if err != nil {
		// Only reachable through an armed failpoint: a background
		// context cannot be cancelled and carries no budget.
		panic(err)
	}
	return d
}

// DecomposeCtx is Decompose honoring cancellation, deadline and any
// run.Budget attached to ctx, checked every bounded number of peel
// operations.  On cancellation or budget exhaustion it returns
// (nil, err): the half-peeled state is not a valid decomposition.
func DecomposeCtx(ctx context.Context, c *CSR, l int) (d *Decomposition, err error) {
	defer recoverPeelAbort(&err)
	p := newPeeler(ctx, c, l)
	p.peel()
	return &Decomposition{
		VertexCoreness: p.vCore,
		EdgeCoreness:   p.eCore,
		MaxK:           p.core,
	}, nil
}
