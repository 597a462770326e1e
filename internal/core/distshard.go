package core

import (
	"context"
	"fmt"

	"hyperplex/internal/csr"
	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/partition"
	"hyperplex/internal/run"
)

// This file is the one peel kernel: the bulk-synchronous phases every
// core route runs.  A DistPeeler is a replica of the sharded peel: the
// full hypergraph as a csr.CSR, the global alive/degree mirrors, and
// the shardPeel arenas of the shards assigned to it.  Its phase
// methods Apply and Shrink are the calls of the one round schedule
// (RunRounds, sharded.go), which records the coreness from the deltas
// it hands out, so a replica holds none.  The in-process driver gives
// one replica every shard — a single shard for Decompose, KCore,
// MaxCore and BiCore — and hands it to RunRounds as the Rounds; the
// internal/dist worker runs one replica per process and calls the same
// methods from its frame handlers.  Each round's cross-shard traffic
// is two deltas — the dying hyperedge IDs and the retired vertex IDs —
// which every replica applies uniformly, so the mirrors never diverge.
// Degree decrements and alive flips are commutative within a phase,
// so the fixpoint per level (and therefore the whole decomposition,
// edge coreness included) is the same at every shard and worker count:
// every driver runs one round schedule.  The
// reduction test (empty, non-maximal or, for a (k, l)-core, smaller
// than l) is the flat-array containment detector (csr.Detector) over
// the replica's own mirrors, with a retired hyperedge's mirrored
// degree zeroed so the detector's degree filter skips it.  Every phase
// method takes the caller's ctx and charges its work, each containment
// test's op count included, with run.Tick, so both drivers keep
// budgets and cancellation.
//
// Fault tolerance keeps no copy of a replica.  The peel only ever
// retires hyperedges and vertices, and every degree it keeps counts
// what is still alive, so a replica at a barrier is fixed by two sets:
// the hyperedges the committed rounds killed and the vertices they
// retired.  Restore builds a replica from those two logs, which the
// driver keeps, and is the only way a replica gets shards, from empty
// logs at the start of a run.  It re-derives the replica's part of the
// barrier's dying delta too, so the restored replica continues exactly
// (distshard_test.go pins this at every barrier).

// checkEvery bounds the containment-test operations a phase performs
// between two cancellation/budget checkpoints.
const checkEvery = 64

// fpBuild fires where a replica's shards are built over the CSR and
// their alive hyperedges tested (Restore); fpPeel fires where a peel
// round re-checks its shrunk hyperedges (Shrink).  Every core
// route passes both.
var (
	fpBuild = failpoint.Register("csr.build")
	fpPeel  = failpoint.Register("csr.peel")
)

// shardPeel is one shard's peel state: a single int32 arena carved
// into the degree array, the bucket order and the shrunk and dying
// lists.  Owned vertices are addressed by their offset j in the
// contiguous owned block (global ID lo+j), owned hyperedges by their
// global ID.
type shardPeel struct {
	lo int32 // first owned global vertex ID
	n  int32 // owned vertex count

	deg []int32 // current full degree per owned vertex, indexed by j

	// The bucket order of Batagelj and Zaveršnik's cores algorithm
	// over the owned offsets: vert lists the retired owned vertices,
	// vert[:done], then the alive ones by degree, and pos is its
	// inverse.  At threshold k, bin[d] is the start of degree d's
	// block vert[bin[d]:bin[d+1]] (the last one ends at n) for every
	// d ≥ k, and the alive owned vertices whose degree fell below k
	// are vert[done:bin[k]]: the frontier, with no stale entry.
	vert, pos, bin []int32
	done           int32

	shrunk []int32 // owned hyperedges shrunk this round
	dying  []int32 // owned hyperedges found dead
}

// decrement lowers owned vertex j's degree at threshold k.  A vertex
// whose degree d was still ≥ k swaps to the front of its block, which
// then starts one later, so the vertex ends block d-1 or, at d = k,
// joins the frontier; one already below k stays where it is.
func (p *shardPeel) decrement(j int32, k int) {
	d := p.deg[j]
	p.deg[j] = d - 1
	if int(d) < k {
		return
	}
	b, at := p.bin[d], p.pos[j]
	u := p.vert[b]
	p.vert[b], p.vert[at] = j, u
	p.pos[j], p.pos[u] = b, at
	p.bin[d] = b + 1
}

// DistPeeler is one replica of the sharded peel: the full hypergraph,
// the global mirrors, and the shardPeel arenas of the shards assigned
// to it.  It is not safe for concurrent use; its driver calls the
// phase methods from a single loop.  A replica that owns every shard
// is a Rounds on its own; its Resume reports every failure as final.
type DistPeeler struct {
	part *partition.Partition

	vAlive, eAlive []bool
	eDeg           []int32 // alive hyperedge degrees, 0 once retired

	// stamp[g] == round marks hyperedge g as listed in its owner's
	// shrunk list this round.  round only ever advances (Restore does
	// not roll it back), so no stamp left from earlier rounds matches.
	stamp []int32
	round int32

	shards []*shardPeel // indexed by shard; nil when not owned here
	// snap holds the hypergraph's CSR and is the detector's view of
	// vAlive and eDeg.
	snap csr.Snapshot
	det  *csr.Detector

	// retiredDelta and dyingDelta hold what Apply and Shrink return,
	// reused every round: allocated once at their bounds, since a
	// round's retired delta lists each vertex at most once and its
	// dying delta each hyperedge.
	retiredDelta, dyingDelta []int32

	// minSize is the l of a (k, l)-core: a tested hyperedge with fewer
	// alive members dies.  l ≤ 1 leaves the empty hyperedge, which the
	// detector retires anyway.  Only the in-process driver sets it.
	minSize int
}

// NewDistPeeler builds a replica over h and its partition that owns no
// shard and holds no state yet: Restore gives it both before its first
// phase.
func NewDistPeeler(h *hypergraph.Hypergraph, part *partition.Partition) *DistPeeler {
	nv, ne := h.NumVertices(), h.NumEdges()
	c := h.CSR()
	w := &DistPeeler{
		part:   part,
		vAlive: make([]bool, nv),
		eAlive: make([]bool, ne),
		eDeg:   make([]int32, ne),
		stamp:  make([]int32, ne),
		shards: make([]*shardPeel, part.NumShards()),
		det:    csr.NewDetector(c),

		retiredDelta: make([]int32, 0, nv),
		dyingDelta:   make([]int32, 0, ne),
	}
	w.snap = csr.Snapshot{C: c, VAlive: w.vAlive, EDeg: w.eDeg}
	return w
}

// Partition returns the partition the replica was built over.
func (w *DistPeeler) Partition() *partition.Partition { return w.part }

// newShard carves the structural arrays of shard s's peel from one
// arena of 3n + maxDeg + 1 + 2·|owned edges| int32s: degrees, the
// bucket order (vert, pos and a block start per possible degree) and
// the work lists.  Every owned vertex starts at its static degree;
// Restore subtracts the dead hyperedges and lays the order out.
func (w *DistPeeler) newShard(s int) *shardPeel {
	sh := &w.part.Shards[s]
	n := sh.Count
	p := &shardPeel{lo: sh.First, n: n}
	maxDeg := int32(0)
	for j := int32(0); j < n; j++ {
		maxDeg = max(maxDeg, w.snap.C.VertexDegree(p.lo+j))
	}
	ne := csr.MustInt32(len(sh.Edges))
	// One arena allocation backs every int32 slice of the shard, so the
	// work lists the phase methods append to stay arena-owned.
	arena := make([]int32, 3*int(n)+int(maxDeg)+1+2*int(ne))
	carve := func(sz int32) []int32 {
		s := arena[:sz:sz]
		arena = arena[sz:]
		return s
	}
	p.deg = carve(n)
	p.vert = carve(n)
	p.pos = carve(n)
	p.bin = carve(maxDeg + 1)
	p.shrunk = carve(ne)[:0]
	p.dying = carve(ne)[:0]
	for j := int32(0); j < n; j++ {
		p.deg[j] = w.snap.C.VertexDegree(p.lo + j)
	}
	return p
}

// layout lays shard p's bucket order out by one counting sort over its
// degrees and the mirrors' liveness: the owned vertices the mirrors
// retired first, in offset order, then the alive ones by degree, with
// every block start exact.  Every alive owned vertex's degree must lie
// in [0, len(p.bin)).
func (w *DistPeeler) layout(p *shardPeel) {
	clear(p.bin)
	retired := int32(0)
	for j := int32(0); j < p.n; j++ {
		if w.vAlive[p.lo+j] {
			p.bin[p.deg[j]]++
		} else {
			retired++
		}
	}
	start := retired
	for d, count := range p.bin {
		p.bin[d] = start
		start += count
	}
	r := int32(0)
	for j := int32(0); j < p.n; j++ {
		at := r
		if d := p.deg[j]; w.vAlive[p.lo+j] {
			at = p.bin[d]
			p.bin[d]++
		} else {
			r++
		}
		p.vert[at], p.pos[j] = j, at
	}
	// Placing moved every block start to the next block's start.
	copy(p.bin[1:], p.bin)
	p.bin[0] = retired
	p.done = retired
}

// PendingDying collects every owned shard's pending dying hyperedges,
// as global IDs, into a buffer the next call or Shrink reuses: this
// replica's part of the next round's dying delta.
func (w *DistPeeler) PendingDying() []int32 {
	w.dyingDelta = w.dyingDelta[:0]
	for _, p := range w.shards {
		if p != nil {
			w.dyingDelta = append(w.dyingDelta, p.dying...)
		}
	}
	return w.dyingDelta
}

// checkDead reports whether alive hyperedge g (global ID) is smaller
// than minSize, empty or non-maximal against the current stable
// snapshot, and the operations the test spent.
//
//hyperplexvet:hotpath
func (w *DistPeeler) checkDead(g int32) (bool, int) {
	if int(w.eDeg[g]) < w.minSize {
		return true, 0
	}
	return w.det.Dead(&w.snap, g)
}

// testEdges appends the hyperedges of edges that checkDead retires to
// p's dying list, charging the tests' operations every checkEvery of
// them, so a step budget bounds the detector's scans.
//
//hyperplexvet:hotpath
func (w *DistPeeler) testEdges(ctx context.Context, p *shardPeel, edges []int32) error {
	meter := run.MeterFrom(ctx)
	ops := 0
	for _, g := range edges {
		dead, n := w.checkDead(g)
		if dead {
			p.dying = append(p.dying, g)
		}
		if ops += n; ops >= checkEvery {
			if err := run.Tick(ctx, meter, int64(ops)); err != nil {
				return err
			}
			ops = 0
		}
	}
	return run.Tick(ctx, meter, int64(ops))
}

// Apply applies a round's dying-hyperedge delta at threshold k and
// gathers the frontier: every replica retires the edges in its mirrors
// (zeroing their degrees for the detector's degree filter), and the
// owners of their alive members decrement those vertices' degrees,
// moving each one that was still at k or above within the bucket
// order.  The delta must cover every shard's pending dying list; the
// pending lists are consumed.  Every owned shard's frontier — alive
// owned vertices whose degree fell below k, vert[done:bin[k]] — is
// then handed out whole and done advances past it.  k must not fall
// below an earlier Apply's since the order was last laid out, as the
// round schedule never lowers it without a Restore.  It returns the
// frontier vote: the frontier as global vertex IDs, this replica's
// part of the round's retired delta, in a buffer the next Apply
// reuses.  Nothing is retired yet: the driver gathers every replica's
// part and hands the union to Shrink.
// Apply charges the delta and the frontier it hands out.
//
//hyperplexvet:hotpath
func (w *DistPeeler) Apply(ctx context.Context, k int, dying []int32) ([]int32, error) {
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, int64(len(dying))+1); err != nil {
		return nil, err
	}
	//hyperplexvet:ignore budgettick bounded pass over the delta, charged by the Tick above
	for _, g := range dying {
		w.eAlive[g] = false
		w.eDeg[g] = 0
		for _, v := range w.snap.C.EdgeVertices(g) {
			if !w.vAlive[v] {
				continue
			}
			if p := w.shards[w.part.VertexOwner[v]]; p != nil {
				p.decrement(v-p.lo, k)
			}
		}
	}
	w.retiredDelta = w.retiredDelta[:0]
	frontier := 0
	//hyperplexvet:ignore budgettick bounded sweep over the shards' frontiers; the Tick below charges every vertex handed out
	for _, p := range w.shards {
		if p == nil {
			continue
		}
		p.dying = p.dying[:0]
		top := p.n
		if k < len(p.bin) {
			top = p.bin[k]
		}
		for _, j := range p.vert[p.done:top] {
			//hyperplexvet:ignore hotalloc retiredDelta is allocated at capacity |V| and a round retires each vertex at most once, so the append never grows it
			w.retiredDelta = append(w.retiredDelta, p.lo+j)
		}
		frontier += int(top - p.done)
		p.done = top
	}
	if err := run.Tick(ctx, meter, int64(frontier)+1); err != nil {
		return nil, err
	}
	return w.retiredDelta, nil
}

// Shrink applies a round's retired-vertex delta and re-checks what it
// shrank: every replica retires the vertices in its mirrors and
// decrements the degrees of their alive hyperedges, the owners of
// those hyperedges record first-shrink stamps, and every owned
// hyperedge that shrank is re-checked for emptiness, non-maximality or
// falling below minSize, refilling each shard's pending dying list.
// Shrink returns them as PendingDying does: the next round's dying
// delta when this replica owns every shard.
//
//hyperplexvet:hotpath
func (w *DistPeeler) Shrink(ctx context.Context, _ int, retired []int32) ([]int32, error) {
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, int64(len(retired))+1); err != nil {
		return nil, err
	}
	w.round++
	//hyperplexvet:ignore budgettick bounded pass over the delta, charged by the Tick above
	for _, vg := range retired {
		w.vAlive[vg] = false
		for _, g := range w.snap.C.VertexEdges(vg) {
			if !w.eAlive[g] {
				continue
			}
			w.eDeg[g]--
			if w.stamp[g] != w.round {
				w.stamp[g] = w.round
				if ps := w.shards[w.part.EdgeOwner[g]]; ps != nil {
					ps.shrunk = append(ps.shrunk, g)
				}
			}
		}
	}
	n := 0
	for _, p := range w.shards {
		if p != nil {
			n += len(p.shrunk)
		}
	}
	if err := run.Tick(ctx, meter, int64(n)+1); err != nil {
		return nil, err
	}
	if err := failpoint.Inject(fpPeel); err != nil {
		return nil, fmt.Errorf("core: peel: %w", err)
	}
	if err := w.retest(ctx); err != nil {
		return nil, err
	}
	return w.PendingDying(), nil
}

// retest re-checks every owned shard's shrunk hyperedges, refilling its
// pending dying list, and empties the shrunk lists.
//
//hyperplexvet:hotpath
func (w *DistPeeler) retest(ctx context.Context) error {
	//hyperplexvet:ignore budgettick bounded sweep over the shards' shrunk lists; testEdges charges each test
	for _, p := range w.shards {
		if p == nil {
			continue
		}
		p.dying = p.dying[:0]
		if err := w.testEdges(ctx, p, p.shrunk); err != nil {
			return err
		}
		p.shrunk = p.shrunk[:0]
	}
	return nil
}

// Resume reports err as final: a replica keeps no barrier to replay
// from.
func (w *DistPeeler) Resume(err error) (int, []int32, error) { return 0, nil, err }

// Restore is the only way a replica gets shards.  It resets the
// replica to a committed barrier of the round schedule, given by the
// driver's two logs: dead, every hyperedge the committed rounds killed,
// and retired, every vertex they retired; everything else is alive, and
// shards names the shards the replica owns from now on.  It recounts
// the degrees, lays each shard's bucket order out anew and tests every
// alive owned hyperedge as Shrink tests a shrunk one, so PendingDying
// then returns this replica's part of the barrier's dying delta.  From
// empty logs that is the round-0 reduction of barrier (0, 0): the
// empty, initially non-maximal and undersized hyperedges, which die at
// coreness 0.  At a later barrier it is the owned part of the committed
// dying union, since a hyperedge that did not shrink in a round keeps
// its alive members while every other one only loses some, so it stays
// maximal.  The lists arrive off the wire, so an ID outside the
// hypergraph or a shard outside the partition is an error, after which
// the replica must be restored again.  Restore charges one step per
// vertex, hyperedge, logged ID and shard up front, then the incidence
// entries the recount reads and the tests' operations.
func (w *DistPeeler) Restore(ctx context.Context, dead, retired, shards []int32) error {
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, int64(len(w.vAlive)+len(w.eAlive)+len(dead)+len(retired)+len(shards))+1); err != nil {
		return err
	}
	if err := failpoint.Inject(fpBuild); err != nil {
		return fmt.Errorf("core: shard build: %w", err)
	}
	if err := w.reset(dead, retired); err != nil {
		return err
	}
	clear(w.shards)
	//hyperplexvet:ignore budgettick bounded pass over the shard list, whose IDs and arenas the first Tick charges
	for _, s := range shards {
		if s < 0 || int(s) >= len(w.shards) {
			return fmt.Errorf("core: restore: shard %d is not one of %d", s, len(w.shards))
		}
		w.shards[s] = w.newShard(int(s))
	}
	if err := run.Tick(ctx, meter, w.recount()); err != nil {
		return err
	}
	//hyperplexvet:ignore budgettick bounded pass over the owned shards and their hyperedges, charged by the first Tick; retest charges each test
	for s, p := range w.shards {
		if p == nil {
			continue
		}
		w.layout(p)
		for _, g := range w.part.Shards[s].Edges {
			if w.eAlive[g] {
				p.shrunk = append(p.shrunk, g)
			}
		}
	}
	return w.retest(ctx)
}

// reset marks the state the two logs give in the mirrors: every
// hyperedge of dead and every vertex of retired retired, everything
// else alive.  The state may revive what the replica had retired, so
// the detector forgets its certificates.  An ID outside the hypergraph
// is an error.
func (w *DistPeeler) reset(dead, retired []int32) error {
	w.det.Forget()
	for v := range w.vAlive {
		w.vAlive[v] = true
	}
	for f := range w.eAlive {
		w.eAlive[f] = true
	}
	for _, g := range dead {
		if g < 0 || int(g) >= len(w.eAlive) {
			return fmt.Errorf("core: restore: hyperedge %d is outside [0, %d)", g, len(w.eAlive))
		}
		w.eAlive[g] = false
	}
	for _, v := range retired {
		if v < 0 || int(v) >= len(w.vAlive) {
			return fmt.Errorf("core: restore: vertex %d is outside [0, %d)", v, len(w.vAlive))
		}
		w.vAlive[v] = false
	}
	return nil
}

// recount sets the degrees over the marked mirrors: every alive
// hyperedge's to its static degree less its retired members, and every
// alive owned vertex's, which newShard set to its static degree, to
// that less its dead hyperedges.  It returns the incidence entries it
// read, the rows of the retired vertices and of the dead hyperedges,
// so a replica restored from empty logs reads none.
func (w *DistPeeler) recount() int64 {
	c := w.snap.C
	rows := 0
	//hyperplexvet:ignore budgettick bounded pass over the dead hyperedges' rows, whose entries Restore charges on return
	for f, alive := range w.eAlive {
		w.eDeg[f] = 0
		if alive {
			w.eDeg[f] = c.EdgeDegree(int32(f))
			continue
		}
		members := c.EdgeVertices(int32(f))
		rows += len(members)
		for _, v := range members {
			if p := w.shards[w.part.VertexOwner[v]]; p != nil && w.vAlive[v] {
				p.deg[v-p.lo]--
			}
		}
	}
	//hyperplexvet:ignore budgettick bounded pass over the retired vertices' rows, whose entries Restore charges on return
	for v, alive := range w.vAlive {
		if alive {
			continue
		}
		edges := c.VertexEdges(int32(v))
		rows += len(edges)
		for _, g := range edges {
			if w.eAlive[g] {
				w.eDeg[g]--
			}
		}
	}
	return int64(rows)
}
