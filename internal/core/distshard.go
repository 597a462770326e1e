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
// full hypergraph as a csr.CSR, the global alive/degree/coreness
// mirrors, and the shardPeel arenas of the shards assigned to it.  Two
// drivers run the same phase methods: the in-process driver
// (sharded.go) gives one replica every shard — a single shard for
// Decompose, KCore, MaxCore and BiCore — and runs the round loop in
// the calling goroutine, and the internal/dist worker drives one
// replica per process over the wire.  Each round's cross-shard traffic
// is two deltas — the dying hyperedge IDs and the retired vertex IDs —
// which every replica applies uniformly, so the mirrors never diverge.
// Degree decrements, alive flips and coreness clamps are commutative
// within a phase, so the fixpoint per level (and therefore the whole
// decomposition, edge coreness included) is the same at every shard
// and worker count: every driver runs one round schedule.  The
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
// Everything else — the bucket queue, the shrink stamps, the frontier
// lists — is reconstructed from those snapshots plus the mirrors, so a
// restored replica continues bit-identically (distshard_test.go pins
// this).

// checkEvery bounds the containment-test operations a phase performs
// between two cancellation/budget checkpoints.
const checkEvery = 64

// fpBuild fires where a shard's arena is built over the CSR and its
// round-0 reduction runs (AssignFresh); fpPeel fires where a peel
// round re-checks its shrunk hyperedges (CheckShrunk).  Every core
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
	K      int
	vAlive []bool
	eAlive []bool
	eDeg   []int32
	vCore  []int
	eCore  []int
	// Shards holds the barrier snapshot of every owned shard, in shard
	// order: the state a Barrier frame carries.  The next Checkpoint
	// into this checkpoint overwrites them.
	Shards []*ShardSnapshot
}

// shardPeel is one shard's peel state: a single int32 arena carved
// into the degree array, the lazy bucket queue and the
// frontier/shrunk/dying lists.  Owned vertices are addressed by their
// offset j in the contiguous owned block (global ID lo+j), owned
// hyperedges by their global ID.
type shardPeel struct {
	lo int32 // first owned global vertex ID
	n  int32 // owned vertex count

	deg []int32 // current full degree per owned vertex, indexed by j

	// Lazy bucket queue over the owned vertices: head[d] is the top
	// entry index of the degree-d bucket, next links entries, item
	// holds the owned offset of each entry.  A vertex is re-pushed on
	// every decrement; stale entries are skipped at gather time.
	head, next, item []int32
	nfree            int32
	cur              int // lowest possibly-non-empty bucket

	frontier []int32 // owned offsets gathered below threshold this round
	shrunk   []int32 // owned hyperedges shrunk this round
	dying    []int32 // owned hyperedges found dead

	aliveV int
}

// push records that owned vertex j now has degree d.  Entries are
// never removed eagerly; gathers skip entries whose recorded degree is
// stale.
func (p *shardPeel) push(j int32, d int) {
	idx := p.nfree
	p.nfree++
	p.item[idx] = j
	p.next[idx] = p.head[d]
	p.head[d] = idx
	if d < p.cur {
		p.cur = d
	}
}

// DistPeeler is one replica of the sharded peel: the full hypergraph,
// the global mirrors, and the shardPeel arenas of the shards assigned
// to it.  It is not safe for concurrent use; its driver calls the
// phase methods from a single loop.
type DistPeeler struct {
	c    *csr.CSR
	part *partition.Partition

	vAlive, eAlive []bool
	eDeg           []int32 // alive hyperedge degrees, 0 once retired
	vCore, eCore   []int

	// stamp[g] == round marks hyperedge g as listed in its owner's
	// shrunk list this round.  round only ever advances (Restore does
	// not roll it back), so no stamp left from earlier rounds matches.
	stamp []int32
	round int32

	shards []*shardPeel // indexed by shard; nil when not owned here
	snap   csr.Snapshot // the detector's view of c, vAlive and eDeg
	det    *csr.Detector

	// minSize is the l of a (k, l)-core: a tested hyperedge with fewer
	// alive members dies.  l ≤ 1 leaves the empty hyperedge, which the
	// detector retires anyway.  Only the in-process driver sets it.
	minSize int

	k int // current peeling threshold
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
		vCore:  make([]int, nv),
		eCore:  make([]int, ne),
		stamp:  make([]int32, ne),
		shards: make([]*shardPeel, part.NumShards()),
		det:    csr.NewDetector(c),
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

// newShard carves the structural arrays of shard s's peel: degrees,
// the lazy bucket queue sized for one initial push per owned vertex
// plus one per possible decrement, and the work lists.  Degrees and
// queue contents are filled by the caller (fresh assign or snapshot
// restore).
func (w *DistPeeler) newShard(s int) *shardPeel {
	sh := &w.part.Shards[s]
	n := sh.Count
	p := &shardPeel{lo: sh.First, n: n}
	maxDeg, ownedInc := int32(0), int32(0)
	for j := int32(0); j < n; j++ {
		d := w.c.VertexDegree(p.lo + j)
		if d > maxDeg {
			maxDeg = d
		}
		ownedInc += d
	}
	ne := csr.MustInt32(len(sh.Edges))
	entries := n + ownedInc
	// One arena allocation backs every int32 slice of the shard, so the
	// work lists the phase methods append to stay arena-owned.
	arena := make([]int32, n+(maxDeg+1)+2*entries+n+2*ne)
	carve := func(sz int32) []int32 {
		s := arena[:sz:sz]
		arena = arena[sz:]
		return s
	}
	p.deg = carve(n)
	p.head = carve(maxDeg + 1)
	p.next = carve(entries)
	p.item = carve(entries)
	p.frontier = carve(n)[:0]
	p.shrunk = carve(ne)[:0]
	p.dying = carve(ne)[:0]
	for i := range p.head {
		p.head[i] = -1
	}
	p.cur = len(p.head)
	return p
}

// AssignFresh assigns shard s to this replica in its initial state and
// runs the round-0 reduction over its owned hyperedges: empty,
// initially non-maximal and undersized hyperedges become the shard's
// pending dying list and die at coreness 0.  Snapshot(s) then returns
// the shard's first barrier state.
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
		p.push(j, int(p.deg[j]))
	}
	p.aliveV = int(p.n)
	w.shards[s] = p
	return w.testEdges(ctx, p, sh.Edges)
}

// AssignSnapshot assigns shard s to this replica, restored from a
// barrier snapshot: degrees come from the snapshot, the bucket queue is
// rebuilt with one push per alive owned vertex at its current degree,
// and the pending dying list is copied.  The global mirrors must
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
	for j := int32(0); j < p.n; j++ {
		if w.vAlive[p.lo+j] {
			p.push(j, int(p.deg[j]))
		}
	}
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

// DropShard releases shard s (its owner moved elsewhere).
func (w *DistPeeler) DropShard(s int) { w.shards[s] = nil }

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

// PendingDying appends every owned shard's pending dying hyperedges,
// as global IDs, to dst: the dying delta of the next round when this
// replica owns every shard.
func (w *DistPeeler) PendingDying(dst []int32) []int32 {
	for _, p := range w.shards {
		if p != nil {
			dst = append(dst, p.dying...)
		}
	}
	return dst
}

// clampCore is the shared coreness assignment: state retired while
// peeling toward threshold k belonged to the (k-1)-core.
func (w *DistPeeler) clampCore() int {
	if w.k < 1 {
		return 0
	}
	return w.k - 1
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

// ApplyDying applies a round's dying-hyperedge delta at threshold k:
// every replica retires the edges in its mirrors (zeroing their
// degrees for the detector's degree filter), and the owners of their
// alive members decrement those vertices' degrees (re-pushing them at
// the new bucket).  The delta must cover every shard's pending dying
// list; the pending lists are consumed.
//
//hyperplexvet:hotpath
func (w *DistPeeler) ApplyDying(ctx context.Context, k int, dying []int32) error {
	if err := run.Tick(ctx, run.MeterFrom(ctx), int64(len(dying))+1); err != nil {
		return err
	}
	w.k = k
	//hyperplexvet:ignore budgettick bounded pass over the delta, charged by the Tick above
	for _, g := range dying {
		w.eAlive[g] = false
		w.eDeg[g] = 0
		w.eCore[g] = w.clampCore()
		for _, v := range w.c.EdgeVertices(g) {
			if !w.vAlive[v] {
				continue
			}
			if p := w.shards[w.part.VertexOwner[v]]; p != nil {
				j := v - p.lo
				p.deg[j]--
				p.push(j, int(p.deg[j]))
			}
		}
	}
	for _, p := range w.shards {
		if p != nil {
			p.dying = p.dying[:0]
		}
	}
	return nil
}

// GatherFrontier gathers every owned shard's frontier — alive owned
// vertices whose degree fell below the threshold — from the bucket
// queues: every bucket below the threshold is drained, keeping the
// entries whose recorded degree is still current (each alive owned
// vertex below the threshold has exactly one such entry, pushed by its
// last decrement).  It returns the local frontier size and alive-vertex
// count for the barrier vote, and charges the entries it popped.
//
//hyperplexvet:hotpath
func (w *DistPeeler) GatherFrontier(ctx context.Context) (frontier, alive int, err error) {
	pops := 0
	//hyperplexvet:ignore budgettick bounded sweep over the shards' queues; the Tick below charges every popped entry
	for _, p := range w.shards {
		if p == nil {
			continue
		}
		p.frontier = p.frontier[:0]
		top := w.k
		if top > len(p.head) {
			top = len(p.head)
		}
		//hyperplexvet:ignore budgettick bounded drain of the buckets below the threshold, charged by the Tick below
		for d := p.cur; d < top; d++ {
			for idx := p.head[d]; idx != -1; idx = p.next[idx] {
				pops++
				j := p.item[idx]
				if w.vAlive[p.lo+j] && int(p.deg[j]) == d {
					p.frontier = append(p.frontier, j)
				}
			}
			p.head[d] = -1
		}
		if p.cur < top {
			p.cur = top
		}
		frontier += len(p.frontier)
		alive += p.aliveV
	}
	if err := run.Tick(ctx, run.MeterFrom(ctx), int64(pops)+1); err != nil {
		return 0, 0, err
	}
	return frontier, alive, nil
}

// CollectRetired appends the gathered frontiers, as global vertex IDs,
// to dst and clears them: this replica's part of the retired delta.
// Nothing is applied yet: the driver gathers every replica's
// contribution and hands the union to ApplyRetired.
func (w *DistPeeler) CollectRetired(dst []int32) []int32 {
	//hyperplexvet:ignore budgettick bounded pass over the frontiers, whose entries GatherFrontier charged
	for _, p := range w.shards {
		if p == nil {
			continue
		}
		for _, j := range p.frontier {
			dst = append(dst, p.lo+j)
		}
		p.frontier = p.frontier[:0]
	}
	return dst
}

// ApplyRetired applies a round's retired-vertex delta: every replica
// retires the vertices in its mirrors and decrements the degrees of
// their alive hyperedges, and the owners of those hyperedges record
// first-shrink stamps for the re-check phase.
//
//hyperplexvet:hotpath
func (w *DistPeeler) ApplyRetired(ctx context.Context, retired []int32) error {
	if err := run.Tick(ctx, run.MeterFrom(ctx), int64(len(retired))+1); err != nil {
		return err
	}
	w.round++
	//hyperplexvet:ignore budgettick bounded pass over the delta, charged by the Tick above
	for _, vg := range retired {
		w.vAlive[vg] = false
		w.vCore[vg] = w.clampCore()
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
	return nil
}

// CheckShrunk re-checks every owned hyperedge that shrank this round
// for emptiness, non-maximality or falling below minSize, refilling
// each shard's pending dying list.  Checkpoint, Snapshot or
// PendingDying read the result.
//
//hyperplexvet:hotpath
func (w *DistPeeler) CheckShrunk(ctx context.Context) error {
	n := 0
	for _, p := range w.shards {
		if p != nil {
			n += len(p.shrunk)
		}
	}
	if err := run.Tick(ctx, run.MeterFrom(ctx), int64(n)+1); err != nil {
		return err
	}
	if err := failpoint.Inject(fpPeel); err != nil {
		return fmt.Errorf("core: peel: %w", err)
	}
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

// stopAt ends the peel at the fixpoint of threshold k: every alive
// vertex and hyperedge is in the k-core, so each gets coreness k.  The
// pass is charged one step per survivor.  Only a driver that owns
// every shard stops early, so the mirrors it fills are the result.
func (w *DistPeeler) stopAt(ctx context.Context, k int) error {
	n := 0
	for v, alive := range w.vAlive {
		if alive {
			w.vCore[v] = k
			n++
		}
	}
	for f, alive := range w.eAlive {
		if alive {
			w.eCore[f] = k
			n++
		}
	}
	return run.Tick(ctx, run.MeterFrom(ctx), int64(n))
}

// Coreness copies out the replica's coreness mirrors.  Valid once the
// driver has retired every vertex; every replica holds the full
// arrays, so any worker can serve the result.
func (w *DistPeeler) Coreness() (vCore, eCore []int) {
	return append([]int(nil), w.vCore...), append([]int(nil), w.eCore...)
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
	dst.K = w.k
	dst.vAlive = append(dst.vAlive[:0], w.vAlive...)
	dst.eAlive = append(dst.eAlive[:0], w.eAlive...)
	dst.eDeg = append(dst.eDeg[:0], w.eDeg...)
	dst.vCore = append(dst.vCore[:0], w.vCore...)
	dst.eCore = append(dst.eCore[:0], w.eCore...)
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
	w.k = cp.K
	copy(w.vAlive, cp.vAlive)
	copy(w.eAlive, cp.eAlive)
	copy(w.eDeg, cp.eDeg)
	copy(w.vCore, cp.vCore)
	copy(w.eCore, cp.eCore)
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
