package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"hyperplex/internal/dataset"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/partition"
	"hyperplex/internal/xrand"
)

// replicas is a Rounds over DistPeeler replicas that together own every
// shard: each call goes to every replica, whose votes are summed and
// whose deltas are joined, as the internal/dist coordinator does over
// the wire.  barrier, when non-nil, runs after every Shrink with the
// barrier's (k, round) and may mutate the replicas (the replay tests
// restore checkpoints from inside it).
type replicas struct {
	t       *testing.T
	ws      []*DistPeeler
	round   int
	barrier func(k, round int, ws []*DistPeeler)
}

func (r *replicas) Apply(ctx context.Context, k int, dying []int32) (retired []int32, alive int, _ error) {
	for _, w := range r.ws {
		part, a, err := w.Apply(ctx, k, dying)
		if err != nil {
			r.t.Fatal(err)
		}
		retiredDegreesZero(r.t, w, "after Apply")
		bucketOrderExact(r.t, w, k, part, "after Apply")
		retired, alive = append(retired, part...), alive+a
	}
	return retired, alive, nil
}

func (r *replicas) Shrink(ctx context.Context, k int, retired []int32) ([]int32, error) {
	var dying []int32
	for _, w := range r.ws {
		part, err := w.Shrink(ctx, k, retired)
		if err != nil {
			r.t.Fatal(err)
		}
		bucketOrderExact(r.t, w, k, nil, "after Shrink")
		dying = append(dying, part...)
	}
	r.round++
	if r.barrier != nil {
		r.barrier(k, r.round, r.ws)
	}
	return dying, nil
}

func (r *replicas) Resume(err error) (int, []int32, error) { return 0, nil, err }

// distDriver assigns the shards of h round-robin over nw replicas and
// runs RunRounds over them from barrier (0, 0), where barrier first
// fires.
func distDriver(t *testing.T, h *hypergraph.Hypergraph, shards, nw int,
	barrier func(k int, round int, workers []*DistPeeler)) *Decomposition {
	t.Helper()
	ctx := context.Background()
	part := partition.Build(h, partition.NormalizeShards(shards, h.NumVertices()))
	r := &replicas{t: t, ws: make([]*DistPeeler, nw), barrier: barrier}
	for i := range r.ws {
		r.ws[i] = NewDistPeeler(h, part)
	}
	var dying []int32
	for s := 0; s < part.NumShards(); s++ {
		if err := r.ws[s%nw].AssignFresh(ctx, s); err != nil {
			t.Fatal(err)
		}
		dying = append(dying, r.ws[s%nw].Snapshot(s).Dying...)
	}
	if barrier != nil {
		barrier(0, 0, r.ws)
	}
	d, err := RunRounds(ctx, r, h, dying, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// retiredDegreesZero asserts the invariant the containment detector's
// degree filter relies on: every retired hyperedge of the replica has
// mirrored degree 0.
func retiredDegreesZero(t *testing.T, w *DistPeeler, label string) {
	t.Helper()
	for g, alive := range w.eAlive {
		if !alive && w.eDeg[g] != 0 {
			t.Fatalf("%s: retired hyperedge %d has degree %d, want 0", label, g, w.eDeg[g])
		}
	}
}

// bucketOrderExact asserts the bucket order of every shard w owns at
// threshold k: vert is a permutation of the owned offsets and pos its
// inverse; vert[:done] holds exactly the owned vertices the mirrors
// retired or handed, the part of the retired delta an Apply just
// returned (nil after Shrink), of which each has degree below k; and
// every other owned vertex, alive with degree d ≥ k, lies in
// vert[bin[d]:bin[d+1]], the last block ending at n.
func bucketOrderExact(t *testing.T, w *DistPeeler, k int, handed []int32, label string) {
	t.Helper()
	for s, p := range w.shards {
		if p == nil {
			continue
		}
		inDelta := make([]bool, p.n)
		for _, v := range handed {
			if p.lo <= v && v < p.lo+p.n {
				inDelta[v-p.lo] = true
			}
		}
		seen := make([]bool, p.n)
		for i, j := range p.vert {
			if j < 0 || j >= p.n || seen[j] || p.pos[j] != int32(i) {
				t.Fatalf("%s: shard %d: vert is no permutation of the owned offsets with inverse pos (vert[%d] = %d)", label, s, i, j)
			}
			seen[j] = true
		}
		end := func(d int32) int32 {
			if int(d)+1 < len(p.bin) {
				return p.bin[d+1]
			}
			return p.n
		}
		for j := int32(0); j < p.n; j++ {
			at, d := p.pos[j], p.deg[j]
			alive := w.vAlive[p.lo+j] && !inDelta[j]
			switch {
			case (at < p.done) == alive:
				t.Fatalf("%s: shard %d: vertex %d at %d, done %d, but alive = %t and handed = %t", label, s, p.lo+j, at, p.done, w.vAlive[p.lo+j], inDelta[j])
			case inDelta[j] && (!w.vAlive[p.lo+j] || int(d) >= k):
				t.Fatalf("%s: shard %d: vertex %d handed out at degree %d, threshold %d, alive = %t", label, s, p.lo+j, d, k, w.vAlive[p.lo+j])
			case !alive:
			case int(d) < k:
				t.Fatalf("%s: shard %d: alive vertex %d kept at degree %d below threshold %d", label, s, p.lo+j, d, k)
			case at < p.bin[d] || at >= end(d):
				t.Fatalf("%s: shard %d: vertex %d of degree %d at %d, outside its block [%d, %d)", label, s, p.lo+j, d, at, p.bin[d], end(d))
			}
		}
	}
}

// sameDecomposition asserts exact equality of vertex coreness, MaxK
// and hyperedge coreness against want, the decomposition
// check.RoundDecompose (RoundOracle) returns for the same hypergraph:
// an independent implementation of the round schedule the dist peeler
// replays.
func sameDecomposition(t *testing.T, want, got *Decomposition, label string) {
	t.Helper()
	if got.MaxK != want.MaxK {
		t.Fatalf("%s: MaxK = %d, want %d", label, got.MaxK, want.MaxK)
	}
	for v, c := range want.VertexCoreness {
		if got.VertexCoreness[v] != c {
			t.Fatalf("%s: vertex %d coreness = %d, want %d", label, v, got.VertexCoreness[v], c)
		}
	}
	for f, c := range want.EdgeCoreness {
		if got.EdgeCoreness[f] != c {
			t.Fatalf("%s: hyperedge %d coreness = %d, want %d", label, f, got.EdgeCoreness[f], c)
		}
	}
}

// TestDistPeelerDifferential pins the broadcast-delta peel against the
// round oracle over the sweep instances, a larger random hypergraph,
// Cellzome and the banded 8000×8000 file, across worker and shard
// counts, while the replicas check their bucket order after every
// phase (bucketOrderExact).
func TestDistPeelerDifferential(t *testing.T) {
	banded, err := mmio.ToHypergraph(gen.SyntheticMatrix(gen.MatrixSpec{Name: "bench", Rows: 8000, Cols: 8000, Band: 10, BandFill: 0.7, RandomPerRow: 2, Seed: 0xBE}))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(0xD157)
	var instances []*hypergraph.Hypergraph
	for i := 0; i < 10; i++ {
		instances = append(instances, gen.RandomHypergraph(10+17*i, 8+13*i, 2+i%5, rng))
	}
	instances = append(instances, gen.RandomHypergraph(220, 160, 6, rng), dataset.Cellzome().H, banded)
	for i, h := range instances {
		want := RoundOracle(h, 1)
		for _, cfg := range [][2]int{{1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 2}} {
			got := distDriver(t, h, cfg[0], cfg[1], nil)
			sameDecomposition(t, want, got, fmt.Sprintf("instance %d at %d shards over %d replicas", i, cfg[0], cfg[1]))
		}
	}
}

// TestDistPeelerReplicasAgree asserts that at every barrier every
// replica holds the same alive and degree mirrors — the invariant that
// lets any replica's shards move to another at a barrier — and keeps
// retired hyperedges at degree 0, at every barrier and at the end (the
// replicas' Apply also checks it after every call).
func TestDistPeelerReplicasAgree(t *testing.T) {
	h := gen.RandomHypergraph(150, 120, 5, xrand.New(0xA9EE))
	var workers []*DistPeeler
	barriers := 0
	distDriver(t, h, 4, 3, func(k, round int, ws []*DistPeeler) {
		workers = ws
		barriers++
		for i, w := range ws {
			retiredDegreesZero(t, w, "at a barrier")
			if !slices.Equal(w.vAlive, ws[0].vAlive) || !slices.Equal(w.eAlive, ws[0].eAlive) || !slices.Equal(w.eDeg, ws[0].eDeg) {
				t.Fatalf("barrier (%d, %d): replica %d's mirrors differ from replica 0's", k, round, i)
			}
		}
	})
	if barriers < 3 {
		t.Fatalf("%d barriers; enlarge the instance", barriers)
	}
	for _, w := range workers {
		retiredDegreesZero(t, w, "after the run")
	}
}

// scramble vandalizes a replica's mutable state the way a half-applied
// round would: degrees, the bucket order and mirrors all change.
func scramble(w *DistPeeler) {
	for i := range w.vAlive {
		if i%3 == 0 {
			w.vAlive[i] = !w.vAlive[i]
		}
	}
	for i := range w.eDeg {
		w.eDeg[i] += int32(i%5) - 2
	}
	w.round += 13
	for _, p := range w.shards {
		if p == nil {
			continue
		}
		for j := range p.deg {
			p.deg[j] += int32(j%3) - 1
		}
		slices.Reverse(p.vert)
		for j := range p.pos {
			p.pos[j] = int32(j % 2)
		}
		for d := range p.bin {
			p.bin[d] = int32(d) % (p.n + 1)
		}
		p.done = p.n / 2
		p.shrunk = append(p.shrunk[:0], 0)
		p.aliveV += 5
	}
}

// TestDistPeelerCheckpointReplay is the barrier-replay pin: at a fixed
// barrier every replica is checkpointed, its state scrambled, then
// restored — and the restored replica must keep retired hyperedges at
// degree 0, and the continuation must still produce the exact
// sequential decomposition.  The reuse arm checkpoints into buffers
// that already hold another replica's earlier barrier, as a worker's
// spare slot does.
func TestDistPeelerCheckpointReplay(t *testing.T) {
	h := gen.RandomHypergraph(180, 140, 5, xrand.New(0xBEEF))
	for _, target := range []int{0, 1, 3} {
		got := distDriver(t, h, 4, 2, func(k, round int, workers []*DistPeeler) {
			if round != target {
				return
			}
			for _, w := range workers {
				cp := w.Checkpoint(nil)
				scramble(w)
				if err := w.Restore(cp); err != nil {
					t.Fatalf("restore at barrier %d: %v", round, err)
				}
				retiredDegreesZero(t, w, "after Restore")
			}
		})
		sameDecomposition(t, RoundOracle(h, 1), got, "replayed run")
	}
	for _, target := range []int{1, 3, 6} {
		bufs := make([]*PeelCheckpoint, 2)
		got := distDriver(t, h, 5, 2, func(k, round int, workers []*DistPeeler) {
			// Each replica writes into the buffer the other filled at the
			// last barrier.  Five shards over two replicas own three and
			// two, so a reused shard list both grows and shrinks.
			bufs[0], bufs[1] = bufs[1], bufs[0]
			for i, w := range workers {
				bufs[i] = w.Checkpoint(bufs[i])
			}
			if round != target {
				return
			}
			for i, w := range workers {
				scramble(w)
				if err := w.Restore(bufs[i]); err != nil {
					t.Fatalf("restore from a reused checkpoint at barrier %d: %v", round, err)
				}
				retiredDegreesZero(t, w, "after Restore from a reused checkpoint")
			}
		})
		sameDecomposition(t, RoundOracle(h, 1), got, "run replayed from reused checkpoints")
	}
}

// TestDistPeelerCheckpointAllocs pins the buffer reuse of Checkpoint:
// checkpointing a replica into an earlier checkpoint of itself at the
// same barrier allocates nothing.
func TestDistPeelerCheckpointAllocs(t *testing.T) {
	h := gen.RandomHypergraph(300, 200, 5, xrand.New(0xC0FE))
	checked := false
	distDriver(t, h, 3, 1, func(k, round int, workers []*DistPeeler) {
		if round != 2 {
			return
		}
		checked = true
		w := workers[0]
		cp := w.Checkpoint(nil)
		if reused := testing.AllocsPerRun(20, func() { cp = w.Checkpoint(cp) }); reused != 0 {
			t.Errorf("Checkpoint into a reused checkpoint made %v allocations, want 0", reused)
		}
	})
	if !checked {
		t.Fatal("run finished before barrier 2; enlarge the instance")
	}
}

// TestDistPeelerReassignment moves a shard between replicas at a
// barrier through its wire snapshot — the coordinator's worker-death
// recovery path — and asserts the continuation is exact.
func TestDistPeelerReassignment(t *testing.T) {
	h := gen.RandomHypergraph(180, 140, 5, xrand.New(0xFEED))
	moved := false
	got := distDriver(t, h, 5, 2, func(k, round int, workers []*DistPeeler) {
		if moved || round < 2 {
			return
		}
		moved = true
		// Move every shard owned by worker 1 onto worker 0, as if
		// worker 1 died at this barrier and the coordinator replayed
		// its snapshots onto the survivor.
		for _, s := range workers[1].Owned() {
			sn := workers[1].Snapshot(s)
			workers[1].DropShard(s)
			if err := workers[0].AssignSnapshot(sn); err != nil {
				t.Fatalf("reassign shard %d: %v", s, err)
			}
		}
	})
	if !moved {
		t.Fatal("run finished before the reassignment barrier; enlarge the instance")
	}
	sameDecomposition(t, RoundOracle(h, 1), got, "reassigned run")
}

// TestDistPeelerSnapshotValidation pins the decoder-side defenses of
// AssignSnapshot: wrong shard index, wrong degree length, an alive
// count the mirrors do not hold, a degree outside [0, static degree],
// and a dying edge owned elsewhere, listed twice or already retired in
// the mirrors are each rejected with a *SnapshotError naming the
// field, before the snapshot can wedge the coordinator's level loop,
// index the bucket order's block starts out of range or decrement a
// degree twice.
func TestDistPeelerSnapshotValidation(t *testing.T) {
	ctx := context.Background()
	h := gen.RandomHypergraph(40, 30, 4, xrand.New(1))
	part := partition.Build(h, 3)
	w := NewDistPeeler(h, part)
	if err := w.AssignFresh(ctx, 1); err != nil {
		t.Fatal(err)
	}
	sn := w.Snapshot(1)
	reject := func(label, field string, bad *ShardSnapshot) {
		t.Helper()
		err := w.AssignSnapshot(bad)
		var se *SnapshotError
		if !errors.As(err, &se) || se.Field != field {
			t.Errorf("%s: got %v, want a *SnapshotError on %s", label, err, field)
		}
	}
	reject("out-of-range shard index", "Shard", &ShardSnapshot{Shard: 99})
	bad := sn.Clone()
	bad.Deg = bad.Deg[:1]
	reject("truncated degree array", "Deg", bad)
	bad = sn.Clone()
	bad.AliveV = 999
	reject("alive count above the shard's vertices", "AliveV", bad)
	for _, d := range []int32{-3, 1 << 20} {
		bad = sn.Clone()
		bad.Deg[0] = d
		reject(fmt.Sprintf("degree %d", d), "Deg", bad)
	}
	bad = sn.Clone()
	var foreign int32 = -1
	for g := int32(0); int(g) < h.NumEdges(); g++ {
		if part.EdgeOwner[g] != 1 {
			foreign = g
			break
		}
	}
	if foreign >= 0 {
		bad.Dying = append(bad.Dying, foreign)
		reject("foreign dying edge", "Dying", bad)
	}
	if err := w.AssignSnapshot(sn.Clone()); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}

	// {0,1,2}, {0,1}, {2,3}: hyperedge 1 ⊂ 0 dies at barrier 0.
	small, err := hypergraph.FromEdgeSets(4, [][]int32{{0, 1, 2}, {0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	w = NewDistPeeler(small, partition.Build(small, 1))
	if err := w.AssignFresh(ctx, 0); err != nil {
		t.Fatal(err)
	}
	sn = w.Snapshot(0)
	if len(sn.Dying) != 1 || sn.Dying[0] != 1 {
		t.Fatalf("barrier 0 dying list %v, want [1]", sn.Dying)
	}
	bad = sn.Clone()
	bad.Dying = append(bad.Dying, 1)
	reject("dying edge listed twice", "Dying", bad)
	if _, _, err := w.Apply(ctx, 1, sn.Dying); err != nil {
		t.Fatal(err)
	}
	sn = w.Snapshot(0)
	bad = sn.Clone()
	bad.Dying = append(bad.Dying, 1)
	reject("dying edge already retired", "Dying", bad)
	if err := w.AssignSnapshot(sn.Clone()); err != nil {
		t.Errorf("valid snapshot after the barrier rejected: %v", err)
	}
}

// TestDistPeelerEmptyAndDegenerate covers the empty hypergraph and
// memberless hyperedges through the dist schedule.
func TestDistPeelerEmptyAndDegenerate(t *testing.T) {
	empty, err := hypergraph.FromEdgeSets(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := distDriver(t, empty, 2, 2, nil)
	if d.MaxK != 0 {
		t.Fatalf("empty hypergraph MaxK = %d, want 0", d.MaxK)
	}
	one, err := hypergraph.FromEdgeSets(3, [][]int32{{}, {0, 1, 2}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	sameDecomposition(t, RoundOracle(one, 1), distDriver(t, one, 2, 2, nil), "degenerate")
}

// TestNewShardSingleArena pins the allocation discipline of the dist
// shard setup: every int32 array of a shardPeel is carved from one
// arena allocation, so assigning a shard costs two heap objects (the
// struct and the arena) instead of one per array, and the carves
// total exactly 3n + maxDeg + 1 + 2·|owned edges| int32s, nothing per
// pin — and the carved slices tile the arena with full-slice-expression
// caps, so an append past a list's budget cannot silently bleed into
// its neighbor.
func TestNewShardSingleArena(t *testing.T) {
	rng := xrand.New(0xA7E4A)
	h := gen.RandomHypergraph(300, 200, 5, rng)
	part := partition.Build(h, partition.NormalizeShards(4, h.NumVertices()))
	w := NewDistPeeler(h, part)

	allocs := testing.AllocsPerRun(50, func() {
		_ = w.newShard(1)
	})
	if allocs != 2 {
		t.Errorf("newShard allocates %.1f objects per call, want 2 (shardPeel + arena)", allocs)
	}

	p := w.newShard(1)
	sh := part.Shards[1]
	n, ne, maxDeg := int(sh.Count), len(sh.Edges), 0
	for v := sh.First; v < sh.First+sh.Count; v++ {
		maxDeg = max(maxDeg, int(h.CSR().VertexDegree(v)))
	}
	carves := []struct {
		name string
		sl   []int32
		size int
		list bool
	}{
		{"deg", p.deg, n, false},
		{"vert", p.vert, n, false},
		{"pos", p.pos, n, false},
		{"bin", p.bin, maxDeg + 1, false},
		{"shrunk", p.shrunk, ne, true},
		{"dying", p.dying, ne, true},
	}
	total := 0
	for _, c := range carves {
		if cap(c.sl) != c.size || (c.list && len(c.sl) != 0) || (!c.list && len(c.sl) != c.size) {
			t.Errorf("%s carved len=%d cap=%d, want capacity %d, capped, and empty for a work list", c.name, len(c.sl), cap(c.sl), c.size)
		}
		total += cap(c.sl)
	}
	if want := 3*n + maxDeg + 1 + 2*ne; total != want {
		t.Errorf("the arena holds %d int32s, want 3n + maxDeg + 1 + 2·|owned edges| = %d", total, want)
	}
}
