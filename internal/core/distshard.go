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
// Fault tolerance hangs off two snapshot layers:
//
//   - ShardSnapshot is the wire-serializable barrier state of a single
//     shardPeel (owned degrees, alive count, pending dying edges); the
//     coordinator collects one per shard at every barrier and replays
//     it onto a surviving worker when the owner dies.
//   - PeelCheckpoint is a worker-local deep copy of the whole replica
//     (mirrors plus every owned ShardSnapshot); survivors restore it on
//     rollback so the round replays from the last completed barrier.
//     Checkpoint writes into the buffers of a checkpoint the caller no
//     longer needs, so a worker that keeps a spare allocates nothing
//     per barrier.
//
// Everything else — the bucket order, the shrink stamps, the shrunk
// lists — is reconstructed from those snapshots plus the mirrors, so a
// restored replica continues bit-identically (distshard_test.go pins
// this).

// checkEvery bounds the containment-test operations a phase performs
// between two cancellation/budget checkpoints.
const checkEvery = 64

// fpBuild fires where a shard's arena is built over the CSR and its
// round-0 reduction runs (AssignFresh); fpPeel fires where a peel
// round re-checks its shrunk hyperedges (Shrink).  Every core
// route passes both.
var (
	fpBuild = failpoint.Register("csr.build")
	fpPeel  = failpoint.Register("csr.peel")
)

// ShardSnapshot is the barrier state of one shard's peel, in wire-ready
// form: flat int32 arrays, global IDs, no pointers into the arena.
type ShardSnapshot struct {
	Shard  int32   // shard index
	AliveV int32   // alive owned vertices
	Deg    []int32 // current degree per owned vertex, by owned offset
	Dying  []int32 // pending dying hyperedges (global IDs), found by the last check phase
}

// SnapshotError reports a ShardSnapshot that AssignSnapshot rejects
// because it cannot describe shard Shard at the replica's barrier.
// Field names the offending ShardSnapshot field.
type SnapshotError struct {
	Shard int32
	Field string // "Shard", "AliveV", "Deg" or "Dying"
	Msg   string
}

func (e *SnapshotError) Error() string {
	return fmt.Sprintf("core: dist shard %d snapshot: %s %s", e.Shard, e.Field, e.Msg)
}

// PeelCheckpoint is a worker-local deep copy of a DistPeeler at a
// barrier: the global mirrors plus a ShardSnapshot per owned shard.
type PeelCheckpoint struct {
	vAlive []bool
	eAlive []bool
	eDeg   []int32
	// Shards holds the barrier snapshot of every owned shard, in shard
	// order: the state a Barrier frame carries.  The next Checkpoint
	// into this checkpoint overwrites them.
	Shards []*ShardSnapshot
}

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

	aliveV int
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
	c    *csr.CSR
	part *partition.Partition

	vAlive, eAlive []bool
	eDeg           []int32 // alive hyperedge degrees, 0 once retired

	// stamp[g] == round marks hyperedge g as listed in its owner's
	// shrunk list this round.  round only ever advances (Restore does
	// not roll it back), so no stamp left from earlier rounds matches.
	stamp []int32
	round int32

	shards []*shardPeel // indexed by shard; nil when not owned here
	snap   csr.Snapshot // the detector's view of c, vAlive and eDeg
	det    *csr.Detector

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

// NewDistPeeler builds a fresh replica over h and its partition: all
// vertices and hyperedges alive, no shards assigned.
func NewDistPeeler(h *hypergraph.Hypergraph, part *partition.Partition) *DistPeeler {
	nv, ne := h.NumVertices(), h.NumEdges()
	c := h.CSR()
	w := &DistPeeler{
		c:      c,
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
	w.snap = csr.Snapshot{C: c, VAlive: w.vAlive, EDeg: w.eDeg, Sig: csr.Signatures(c)}
	for v := 0; v < nv; v++ {
		w.vAlive[v] = true
	}
	for f := 0; f < ne; f++ {
		w.eAlive[f] = true
		w.eDeg[f] = int32(h.EdgeDegree(f))
	}
	return w
}

// NumShards returns the partition's shard count.
func (w *DistPeeler) NumShards() int { return w.part.NumShards() }

// newShard carves the structural arrays of shard s's peel from one
// arena of 3n + maxDeg + 1 + 2·|owned edges| int32s: degrees, the
// bucket order (vert, pos and a block start per possible degree) and
// the work lists.  The caller fills the degrees and lays the order
// out (fresh assign or snapshot restore).
func (w *DistPeeler) newShard(s int) *shardPeel {
	sh := &w.part.Shards[s]
	n := sh.Count
	p := &shardPeel{lo: sh.First, n: n}
	maxDeg := int32(0)
	for j := int32(0); j < n; j++ {
		maxDeg = max(maxDeg, w.c.VertexDegree(p.lo+j))
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

// AssignFresh assigns shard s to this replica in its initial state,
// every owned vertex alive at its static degree and the bucket order
// laid out over those degrees, and runs the round-0 reduction over its
// owned hyperedges: empty, initially non-maximal and undersized
// hyperedges become the shard's pending dying list and die at
// coreness 0.  Snapshot(s) then returns the shard's first barrier
// state.
func (w *DistPeeler) AssignFresh(ctx context.Context, s int) error {
	sh := &w.part.Shards[s]
	if err := run.Tick(ctx, run.MeterFrom(ctx), int64(sh.Count)+int64(len(sh.Edges))+1); err != nil {
		return err
	}
	if err := failpoint.Inject(fpBuild); err != nil {
		return fmt.Errorf("core: shard build: %w", err)
	}
	p := w.newShard(s)
	for j := int32(0); j < p.n; j++ {
		p.deg[j] = w.c.VertexDegree(p.lo + j)
	}
	p.aliveV = int(p.n)
	w.layout(p)
	w.shards[s] = p
	return w.testEdges(ctx, p, sh.Edges)
}

// AssignSnapshot assigns shard s to this replica, restored from a
// barrier snapshot: degrees come from the snapshot, the bucket order is
// laid out anew over them and the mirrors' liveness once the checks
// below have passed (its counting sort indexes a block start by
// degree), and the pending dying list is copied.  The global mirrors must
// already be at the same barrier, and the snapshot must agree with
// them: a *SnapshotError rejects a wrong shard index, a degree array
// of the wrong length, an alive count other than the mirrors' over the
// owned block, a degree outside [0, static degree] (or, for an alive
// vertex, other than its count of alive hyperedges), and a dying
// hyperedge the shard does not own, that the mirrors have already
// retired, or that the list repeats.
func (w *DistPeeler) AssignSnapshot(sn *ShardSnapshot) error {
	s := int(sn.Shard)
	if s < 0 || s >= len(w.shards) {
		return &SnapshotError{Shard: sn.Shard, Field: "Shard", Msg: fmt.Sprintf("is not one of %d shards", len(w.shards))}
	}
	p := w.newShard(s)
	if len(sn.Deg) != int(p.n) {
		return &SnapshotError{Shard: sn.Shard, Field: "Deg", Msg: fmt.Sprintf("has %d entries, want %d", len(sn.Deg), p.n)}
	}
	alive := int32(0)
	for j := int32(0); j < p.n; j++ {
		v := p.lo + j
		d := sn.Deg[j]
		if d < 0 || d > w.c.VertexDegree(v) {
			return &SnapshotError{Shard: sn.Shard, Field: "Deg", Msg: fmt.Sprintf("[%d] = %d is outside [0, %d]", j, d, w.c.VertexDegree(v))}
		}
		if !w.vAlive[v] {
			continue
		}
		alive++
		if live := w.aliveDegree(v); d != live {
			return &SnapshotError{Shard: sn.Shard, Field: "Deg", Msg: fmt.Sprintf("[%d] = %d, but alive vertex %d has %d alive hyperedges", j, d, v, live)}
		}
	}
	if sn.AliveV != alive {
		return &SnapshotError{Shard: sn.Shard, Field: "AliveV", Msg: fmt.Sprintf("= %d, but the mirrors hold %d alive owned vertices", sn.AliveV, alive)}
	}
	copy(p.deg, sn.Deg)
	p.aliveV = int(alive)
	w.layout(p)
	// A fresh stamp generation marks the listed hyperedges, so a repeat
	// is caught; the next retire phase advances past it.
	w.round++
	for _, g := range sn.Dying {
		switch {
		case g < 0 || int(g) >= len(w.eAlive) || w.part.EdgeOwner[g] != int32(s):
			return &SnapshotError{Shard: sn.Shard, Field: "Dying", Msg: fmt.Sprintf("hyperedge %d is not owned by the shard", g)}
		case !w.eAlive[g]:
			return &SnapshotError{Shard: sn.Shard, Field: "Dying", Msg: fmt.Sprintf("hyperedge %d is already retired", g)}
		case w.stamp[g] == w.round:
			return &SnapshotError{Shard: sn.Shard, Field: "Dying", Msg: fmt.Sprintf("hyperedge %d is listed twice", g)}
		}
		w.stamp[g] = w.round
		p.dying = append(p.dying, g)
	}
	w.shards[s] = p
	return nil
}

// aliveDegree counts the alive hyperedges of vertex v in the mirrors:
// the degree an alive vertex carries at every barrier.
func (w *DistPeeler) aliveDegree(v int32) int32 {
	d := int32(0)
	for _, g := range w.c.VertexEdges(v) {
		if w.eAlive[g] {
			d++
		}
	}
	return d
}

// Snapshot captures owned shard s's barrier state.
func (w *DistPeeler) Snapshot(s int) *ShardSnapshot {
	sn := &ShardSnapshot{}
	w.snapshotInto(sn, s)
	return sn
}

// snapshotInto writes owned shard s's barrier state into sn, reusing
// its Deg and Dying buffers.
func (w *DistPeeler) snapshotInto(sn *ShardSnapshot, s int) {
	p := w.shards[s]
	sn.Shard = int32(s)
	sn.AliveV = int32(p.aliveV)
	sn.Deg = append(sn.Deg[:0], p.deg...)
	sn.Dying = append(sn.Dying[:0], p.dying...)
}

// pendingDying collects every owned shard's pending dying hyperedges,
// as global IDs, into the dying buffer: the dying delta of the next
// round when this replica owns every shard.
func (w *DistPeeler) pendingDying() []int32 {
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
// reuses, and the alive owned vertices.  Nothing is retired yet: the
// driver gathers every replica's part and hands the union to Shrink.
// Apply charges the delta and the frontier it hands out.
//
//hyperplexvet:hotpath
func (w *DistPeeler) Apply(ctx context.Context, k int, dying []int32) (retired []int32, alive int, err error) {
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, int64(len(dying))+1); err != nil {
		return nil, 0, err
	}
	//hyperplexvet:ignore budgettick bounded pass over the delta, charged by the Tick above
	for _, g := range dying {
		w.eAlive[g] = false
		w.eDeg[g] = 0
		for _, v := range w.c.EdgeVertices(g) {
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
		alive += p.aliveV
	}
	if err := run.Tick(ctx, meter, int64(frontier)+1); err != nil {
		return nil, 0, err
	}
	return w.retiredDelta, alive, nil
}

// Shrink applies a round's retired-vertex delta and re-checks what it
// shrank: every replica retires the vertices in its mirrors and
// decrements the degrees of their alive hyperedges, the owners of
// those hyperedges record first-shrink stamps, and every owned
// hyperedge that shrank is re-checked for emptiness, non-maximality or
// falling below minSize, refilling each shard's pending dying list.
// Checkpoint and Snapshot read those lists; Shrink returns them, in a
// buffer the next Shrink reuses, as the next round's dying delta when
// this replica owns every shard.
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
		if p := w.shards[w.part.VertexOwner[vg]]; p != nil {
			p.aliveV--
		}
		for _, g := range w.c.VertexEdges(vg) {
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
	//hyperplexvet:ignore budgettick bounded sweep over the shards' shrunk lists; testEdges charges each test
	for _, p := range w.shards {
		if p == nil {
			continue
		}
		p.dying = p.dying[:0]
		if err := w.testEdges(ctx, p, p.shrunk); err != nil {
			return nil, err
		}
		p.shrunk = p.shrunk[:0]
	}
	return w.pendingDying(), nil
}

// Resume reports err as final: a replica keeps no barrier to replay
// from.
func (w *DistPeeler) Resume(err error) (int, []int32, error) { return 0, nil, err }

// stopAt ends the peel at the fixpoint of level d.MaxK: every alive
// vertex and hyperedge is in the MaxK-core, so each gets coreness MaxK
// in d.  The pass is charged one step per survivor.  Only a driver that
// owns every shard stops early, so its mirrors name every survivor.
func (w *DistPeeler) stopAt(ctx context.Context, d *Decomposition) error {
	n := 0
	for v, alive := range w.vAlive {
		if alive {
			d.VertexCoreness[v] = d.MaxK
			n++
		}
	}
	for f, alive := range w.eAlive {
		if alive {
			d.EdgeCoreness[f] = d.MaxK
			n++
		}
	}
	return run.Tick(ctx, run.MeterFrom(ctx), int64(n))
}

// Checkpoint deep-copies the replica at a barrier into dst and returns
// it: mirrors plus one ShardSnapshot per owned shard.  dst's buffers
// are overwritten and reused wherever they are large enough, so dst
// must be a checkpoint the caller will not restore again; a nil dst
// allocates a fresh one.  Restore brings the replica back to exactly
// this state.
func (w *DistPeeler) Checkpoint(dst *PeelCheckpoint) *PeelCheckpoint {
	if dst == nil {
		dst = &PeelCheckpoint{}
	}
	dst.vAlive = append(dst.vAlive[:0], w.vAlive...)
	dst.eAlive = append(dst.eAlive[:0], w.eAlive...)
	dst.eDeg = append(dst.eDeg[:0], w.eDeg...)
	n := 0
	for s, p := range w.shards {
		if p == nil {
			continue
		}
		if n == len(dst.Shards) {
			dst.Shards = append(dst.Shards, &ShardSnapshot{})
		}
		w.snapshotInto(dst.Shards[n], s)
		n++
	}
	dst.Shards = dst.Shards[:n]
	return dst
}

// Restore rolls the replica back to a checkpoint taken on this
// replica: mirrors are copied back and every owned shardPeel is
// rebuilt from its barrier snapshot, so the continuation is
// bit-identical to a run that never left the barrier.
func (w *DistPeeler) Restore(cp *PeelCheckpoint) error {
	copy(w.vAlive, cp.vAlive)
	copy(w.eAlive, cp.eAlive)
	copy(w.eDeg, cp.eDeg)
	for s := range w.shards {
		w.shards[s] = nil
	}
	for _, sn := range cp.Shards {
		if err := w.AssignSnapshot(sn); err != nil {
			return err
		}
	}
	return nil
}
