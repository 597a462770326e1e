package core

import (
	"fmt"

	"hyperplex/internal/csr"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/partition"
)

// This file is the engine layer's distributed face: the per-worker
// peel state a coordinator/worker runtime (internal/dist) drives over a
// wire instead of through in-memory outboxes.  A DistPeeler is one
// worker's replica — the full hypergraph as a csr.CSR, the global
// alive/degree/coreness mirrors every worker keeps in lockstep, and the
// shardPeel arenas of the shards assigned to this worker.  The phase
// methods mirror the bulk-synchronous schedule of shardedEngine
// (sharded.go) exactly, with one twist: instead of pairwise outboxes,
// each round's cross-shard traffic is two broadcast deltas — the dying
// hyperedge IDs and the retired vertex IDs — which every replica
// applies uniformly, so the mirrors never diverge.  Degree decrements,
// alive flips and coreness clamps are commutative within a phase, so
// the fixpoint per level (and therefore the coreness assignment) is
// identical to Decompose and ShardedDecompose, and the whole
// decomposition, edge coreness included, equals ShardedDecompose's and
// Decompose's byte for byte: all three run one round schedule.  The
// reduction test
// (empty or non-maximal) is the same flat-array containment detector
// (csr.Detector) over the replica's own mirrors, with a retired
// hyperedge's mirrored degree zeroed so the detector's degree filter
// skips it.
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
//
// Everything else — the bucket queue, the shrink stamps, the frontier
// lists — is reconstructed from those snapshots plus the mirrors, so a
// restored replica continues bit-identically (distshard_test.go pins
// this).

// ShardSnapshot is the barrier state of one shard's peel, in wire-ready
// form: flat int32 arrays, global IDs, no pointers into the arena.
type ShardSnapshot struct {
	Shard  int32   // shard index
	AliveV int32   // alive owned vertices
	Deg    []int32 // current degree per owned vertex, by owned offset
	Dying  []int32 // pending dying hyperedges (global IDs), found by the last check phase
}

// Clone deep-copies the snapshot.
func (sn *ShardSnapshot) Clone() *ShardSnapshot {
	return &ShardSnapshot{
		Shard:  sn.Shard,
		AliveV: sn.AliveV,
		Deg:    append([]int32(nil), sn.Deg...),
		Dying:  append([]int32(nil), sn.Dying...),
	}
}

// PeelCheckpoint is a worker-local deep copy of a DistPeeler at a
// barrier: the global mirrors plus a ShardSnapshot per owned shard.
type PeelCheckpoint struct {
	K      int
	Round  int32
	vAlive []bool
	eAlive []bool
	eDeg   []int32
	vCore  []int
	eCore  []int
	shards []*ShardSnapshot
}

// DistPeeler is one distributed worker's replica of the sharded peel:
// the full hypergraph, the global mirrors, and the shardPeel arenas of
// the shards assigned to it.  It is not safe for concurrent use; the
// dist worker drives it from a single loop.
type DistPeeler struct {
	c    *csr.CSR
	part *partition.Partition

	vAlive, eAlive []bool
	eDeg           []int32 // alive hyperedge degrees, 0 once retired
	vCore, eCore   []int

	// eLocal maps a global hyperedge ID to its owner-local index (its
	// position in part.Shards[owner].Edges), shared by every shard's
	// stamp addressing.
	eLocal []int32

	shards []*shardPeel // indexed by shard; nil when not owned here
	snap   csr.Snapshot // the detector's view of c, vAlive and eDeg
	det    *csr.Detector

	k     int   // current peeling threshold
	round int32 // shrink-stamp generation, advanced per retire phase
}

// NewDistPeeler builds a fresh replica over h and its partition: all
// vertices and hyperedges alive, no shards assigned.
func NewDistPeeler(h *hypergraph.Hypergraph, part *partition.Partition) *DistPeeler {
	nv, ne := h.NumVertices(), h.NumEdges()
	c := csr.FromH(h)
	w := &DistPeeler{
		c:      c,
		part:   part,
		vAlive: make([]bool, nv),
		eAlive: make([]bool, ne),
		eDeg:   make([]int32, ne),
		vCore:  make([]int, nv),
		eCore:  make([]int, ne),
		eLocal: make([]int32, ne),
		shards: make([]*shardPeel, part.NumShards()),
		det:    csr.NewDetector(c),
	}
	w.snap = csr.Snapshot{C: c, Rows: c.EAdj, VAlive: w.vAlive, EDeg: w.eDeg, Sig: csr.Signatures(c)}
	for v := 0; v < nv; v++ {
		w.vAlive[v] = true
	}
	for f := 0; f < ne; f++ {
		w.eAlive[f] = true
		w.eDeg[f] = int32(h.EdgeDegree(f))
	}
	for s := range part.Shards {
		for i, g := range part.Shards[s].Edges {
			w.eLocal[g] = int32(i)
		}
	}
	return w
}

// NumShards returns the partition's shard count.
func (w *DistPeeler) NumShards() int { return w.part.NumShards() }

// Owned returns the ascending indices of the shards assigned here.
func (w *DistPeeler) Owned() []int {
	var out []int
	for s, p := range w.shards {
		if p != nil {
			out = append(out, s)
		}
	}
	return out
}

// newShard carves the structural arrays of shard s's peel: degrees,
// the lazy bucket queue sized for one initial push per owned vertex
// plus one per possible decrement, the owner-local shrink stamps and
// the work lists.  Degrees and queue contents are filled by the
// caller (fresh assign or snapshot restore).
func (w *DistPeeler) newShard(s int) *shardPeel {
	sh := &w.part.Shards[s]
	n := csr.MustInt32(len(sh.Vertices))
	p := &shardPeel{n: n}
	if n > 0 {
		p.lo = sh.Vertices[0]
	}
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
	// One arena allocation backs every int32 slice of the shard — the
	// same carve discipline as shardedEngine.setupShard, so the work
	// lists shared through shardPeel stay arena-owned everywhere.
	arena := make([]int32, n+(maxDeg+1)+2*entries+ne+n+2*ne)
	carve := func(sz int32) []int32 {
		s := arena[:sz:sz]
		arena = arena[sz:]
		return s
	}
	p.deg = carve(n)
	p.head = carve(maxDeg + 1)
	p.next = carve(entries)
	p.item = carve(entries)
	p.stamp = carve(ne)
	p.frontier = carve(n)[:0]
	p.shrunk = carve(ne)[:0]
	p.dying = carve(ne)[:0]
	for i := range p.head {
		p.head[i] = -1
	}
	for i := range p.stamp {
		p.stamp[i] = -1
	}
	p.cur = len(p.head)
	return p
}

// AssignFresh assigns shard s to this replica in its initial state and
// runs the round-0 reduction over its owned hyperedges (empty and
// initially non-maximal hyperedges die at coreness 0, exactly like
// shardedEngine.checkInitial).  It returns the shard's first barrier
// snapshot.
func (w *DistPeeler) AssignFresh(s int) *ShardSnapshot {
	p := w.newShard(s)
	for j := int32(0); j < p.n; j++ {
		p.deg[j] = w.c.VertexDegree(p.lo + j)
		p.push(j, int(p.deg[j]))
	}
	p.aliveV = int(p.n)
	w.shards[s] = p
	for i, g := range w.part.Shards[s].Edges {
		if w.checkDead(g) {
			p.dying = append(p.dying, int32(i))
		}
	}
	return w.snapshotShard(s)
}

// AssignSnapshot assigns shard s to this replica, restored from a
// barrier snapshot: degrees come from the snapshot, the bucket queue is
// rebuilt with one push per alive owned vertex at its current degree,
// and the pending dying list is mapped back to owner-local indices.
// The global mirrors must already be at the same barrier.
func (w *DistPeeler) AssignSnapshot(sn *ShardSnapshot) error {
	s := int(sn.Shard)
	if s < 0 || s >= len(w.shards) {
		return fmt.Errorf("core: dist shard snapshot for shard %d of %d", s, len(w.shards))
	}
	p := w.newShard(s)
	if len(sn.Deg) != int(p.n) {
		return fmt.Errorf("core: dist shard %d snapshot has %d degrees, want %d", s, len(sn.Deg), p.n)
	}
	copy(p.deg, sn.Deg)
	p.aliveV = int(sn.AliveV)
	for j := int32(0); j < p.n; j++ {
		if w.vAlive[p.lo+j] {
			p.push(j, int(p.deg[j]))
		}
	}
	for _, g := range sn.Dying {
		if g < 0 || int(g) >= len(w.eLocal) || w.part.EdgeOwner[g] != int32(s) {
			return fmt.Errorf("core: dist shard %d snapshot dying edge %d is not owned by it", s, g)
		}
		p.dying = append(p.dying, w.eLocal[g])
	}
	w.shards[s] = p
	return nil
}

// DropShard releases shard s (its owner moved elsewhere).
func (w *DistPeeler) DropShard(s int) { w.shards[s] = nil }

// snapshotShard captures shard s's barrier state.
func (w *DistPeeler) snapshotShard(s int) *ShardSnapshot {
	p := w.shards[s]
	sn := &ShardSnapshot{
		Shard:  int32(s),
		AliveV: int32(p.aliveV),
		Deg:    append([]int32(nil), p.deg...),
		Dying:  make([]int32, 0, len(p.dying)),
	}
	for _, fi := range p.dying {
		sn.Dying = append(sn.Dying, w.part.Shards[s].Edges[fi])
	}
	return sn
}

// clampCore mirrors shardedEngine.clampCore: state retired while
// peeling toward threshold k belonged to the (k-1)-core.
func (w *DistPeeler) clampCore() int {
	if w.k < 1 {
		return 0
	}
	return w.k - 1
}

// checkDead reports whether alive hyperedge g (global ID) is empty or
// non-maximal against the current stable snapshot.
func (w *DistPeeler) checkDead(g int32) bool {
	dead, _ := w.det.Dead(&w.snap, g)
	return dead
}

// ApplyDying applies a round's broadcast dying-hyperedge delta at
// threshold k: every replica retires the edges in its mirrors (zeroing
// their degrees for the detector's degree filter), and the owners of
// their alive members decrement those vertices' degrees (re-pushing
// them at the new bucket).  The union must cover every
// shard's pending dying list; the pending lists are consumed.
func (w *DistPeeler) ApplyDying(k int, dying []int32) {
	w.k = k
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
}

// GatherFrontier gathers every owned shard's frontier — alive owned
// vertices whose degree fell below the threshold — from the bucket
// queues with the same stale-skipping discipline as the sharded
// engine, and returns the local frontier size and alive-vertex count
// for the coordinator's barrier vote.
func (w *DistPeeler) GatherFrontier() (frontier, alive int) {
	for _, p := range w.shards {
		if p == nil {
			continue
		}
		p.frontier = p.frontier[:0]
		top := w.k
		if top > len(p.head) {
			top = len(p.head)
		}
		for d := p.cur; d < top; d++ {
			for idx := p.head[d]; idx != -1; idx = p.next[idx] {
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
	return frontier, alive
}

// CollectRetired drains the gathered frontiers as global vertex IDs for
// the retire broadcast.  Nothing is applied yet: the coordinator
// gathers every worker's contribution and broadcasts the union, which
// ApplyRetired then applies uniformly.
func (w *DistPeeler) CollectRetired() []int32 {
	var out []int32
	for _, p := range w.shards {
		if p == nil {
			continue
		}
		for _, j := range p.frontier {
			out = append(out, p.lo+j)
		}
		p.frontier = p.frontier[:0]
	}
	return out
}

// ApplyRetired applies a round's broadcast retired-vertex delta: every
// replica retires the vertices in its mirrors and decrements the
// degrees of their alive hyperedges, and the owners of those hyperedges
// record first-shrink stamps for the re-check phase.
func (w *DistPeeler) ApplyRetired(retired []int32) {
	w.round++
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
			if ps := w.shards[w.part.EdgeOwner[g]]; ps != nil {
				fi := w.eLocal[g]
				if ps.stamp[fi] != w.round {
					ps.stamp[fi] = w.round
					ps.shrunk = append(ps.shrunk, fi)
				}
			}
		}
	}
}

// CheckShrunk re-checks every owned hyperedge that shrank this round
// for emptiness or non-maximality, refilling each shard's pending
// dying list, and returns the barrier snapshot of every owned shard.
func (w *DistPeeler) CheckShrunk() []*ShardSnapshot {
	var out []*ShardSnapshot
	for s, p := range w.shards {
		if p == nil {
			continue
		}
		p.dying = p.dying[:0]
		for _, fi := range p.shrunk {
			if w.checkDead(w.part.Shards[s].Edges[fi]) {
				p.dying = append(p.dying, fi)
			}
		}
		p.shrunk = p.shrunk[:0]
		out = append(out, w.snapshotShard(s))
	}
	return out
}

// Coreness copies out the replica's coreness mirrors.  Valid once the
// coordinator has driven every vertex to retirement; every replica
// holds the full arrays, so any worker can serve the result.
func (w *DistPeeler) Coreness() (vCore, eCore []int) {
	return append([]int(nil), w.vCore...), append([]int(nil), w.eCore...)
}

// Checkpoint deep-copies the replica at a barrier: mirrors plus one
// ShardSnapshot per owned shard.  Restore brings the replica back to
// exactly this state.
func (w *DistPeeler) Checkpoint() *PeelCheckpoint {
	cp := &PeelCheckpoint{
		K:      w.k,
		Round:  w.round,
		vAlive: append([]bool(nil), w.vAlive...),
		eAlive: append([]bool(nil), w.eAlive...),
		eDeg:   append([]int32(nil), w.eDeg...),
		vCore:  append([]int(nil), w.vCore...),
		eCore:  append([]int(nil), w.eCore...),
	}
	for s, p := range w.shards {
		if p != nil {
			cp.shards = append(cp.shards, w.snapshotShard(s))
		}
	}
	return cp
}

// Restore rolls the replica back to a checkpoint taken on this
// replica: mirrors are copied back and every owned shardPeel is
// rebuilt from its barrier snapshot, so the continuation is
// bit-identical to a run that never left the barrier.
func (w *DistPeeler) Restore(cp *PeelCheckpoint) error {
	w.k = cp.K
	w.round = cp.Round
	copy(w.vAlive, cp.vAlive)
	copy(w.eAlive, cp.eAlive)
	copy(w.eDeg, cp.eDeg)
	copy(w.vCore, cp.vCore)
	copy(w.eCore, cp.eCore)
	for s := range w.shards {
		w.shards[s] = nil
	}
	for _, sn := range cp.shards {
		if err := w.AssignSnapshot(sn); err != nil {
			return err
		}
	}
	return nil
}
