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
// shard: each call goes to every replica, whose deltas are joined, as
// the internal/dist coordinator does over the wire.  Like the
// coordinator it logs the dying and the retired delta of every round
// that reaches its barrier: dead and retired, from which Restore builds
// a replica.  It also records what every call returned, in call order,
// in calls.  barrier, when non-nil, runs at barrier (0, 0) and after
// every Shrink with the barrier's k and the next round's dying delta,
// and may restore the replicas (the replay tests do).  replay, when not
// empty, is another run's calls, which the calls return in turn without
// reaching the replicas.  from, when set, is a barrier to resume at:
// the first Apply after the replay fails and Resume answers with it,
// as the coordinator's does after a recovery.
type replicas struct {
	t       *testing.T
	part    *partition.Partition
	ws      []*DistPeeler
	round   int
	barrier func(r *replicas, k int, dying []int32)
	from    *resumePoint

	start                  []int32 // the dying delta of barrier (0, 0)
	calls, replay          [][]int32
	dead, retired, applied []int32
}

// resumePoint is a committed barrier: its threshold and the dying
// delta the round after it applies.
type resumePoint struct {
	k     int
	dying []int32
}

// errResume fails the first Apply of a run that resumes at a barrier.
var errResume = errors.New("resume at a committed barrier")

// newReplicas builds nw replicas of h over part, which own no shard
// until a Restore.
func newReplicas(t *testing.T, h *hypergraph.Hypergraph, part *partition.Partition, nw int) *replicas {
	r := &replicas{t: t, part: part, ws: make([]*DistPeeler, nw)}
	for i := range r.ws {
		r.ws[i] = NewDistPeeler(h, part)
	}
	return r
}

// replayed returns the next recorded call's result while the replay
// lasts.
func (r *replicas) replayed() ([]int32, bool) {
	if len(r.replay) == 0 {
		return nil, false
	}
	ids := r.replay[0]
	r.replay = r.replay[1:]
	return ids, true
}

func (r *replicas) Apply(ctx context.Context, k int, dying []int32) (retired []int32, _ error) {
	if ids, ok := r.replayed(); ok {
		return ids, nil
	}
	if r.from != nil {
		return nil, errResume
	}
	r.applied = dying
	for _, w := range r.ws {
		part, err := w.Apply(ctx, k, dying)
		if err != nil {
			r.t.Fatal(err)
		}
		retiredDegreesZero(r.t, w, "after Apply")
		bucketOrderExact(r.t, w, k, part, "after Apply")
		retired = append(retired, part...)
	}
	r.calls = append(r.calls, retired)
	return retired, nil
}

func (r *replicas) Shrink(ctx context.Context, k int, retired []int32) ([]int32, error) {
	if ids, ok := r.replayed(); ok {
		return ids, nil
	}
	var dying []int32
	for _, w := range r.ws {
		part, err := w.Shrink(ctx, k, retired)
		if err != nil {
			r.t.Fatal(err)
		}
		bucketOrderExact(r.t, w, k, nil, "after Shrink")
		dying = append(dying, part...)
	}
	r.dead = append(r.dead, r.applied...)
	r.retired = append(r.retired, retired...)
	r.round++
	r.calls = append(r.calls, dying)
	if r.barrier != nil {
		r.barrier(r, k, dying)
	}
	return dying, nil
}

func (r *replicas) Resume(err error) (int, []int32, error) {
	if from := r.from; from != nil && errors.Is(err, errResume) {
		r.from = nil
		return from.k, from.dying, nil
	}
	return 0, nil, err
}

// restoreFrom restores every replica of r from the logs of src, dealing
// shard s to replica (s + shift) mod len(r.ws).
func (r *replicas) restoreFrom(src *replicas, shift int) {
	r.t.Helper()
	owned := make([][]int32, len(r.ws))
	for s := 0; s < r.part.NumShards(); s++ {
		i := (s + shift) % len(r.ws)
		owned[i] = append(owned[i], int32(s))
	}
	for i, w := range r.ws {
		if err := w.Restore(context.Background(), src.dead, src.retired, owned[i]); err != nil {
			r.t.Fatalf("restore replica %d at barrier %d: %v", i, src.round, err)
		}
		retiredDegreesZero(r.t, w, "after Restore")
	}
	r.dead = append(r.dead[:0], src.dead...)
	r.retired = append(r.retired[:0], src.retired...)
	r.round = src.round
}

// distDriver restores nw replicas of h from empty logs, dealing the
// shards round-robin, and runs RunRounds over them from barrier (0, 0),
// where barrier first fires.
func distDriver(t *testing.T, h *hypergraph.Hypergraph, shards, nw int,
	barrier func(r *replicas, k int, dying []int32)) *Decomposition {
	t.Helper()
	ctx := context.Background()
	r := newReplicas(t, h, partition.Build(h, shards), nw)
	r.barrier = barrier
	r.restoreFrom(r, 0)
	for _, w := range r.ws {
		r.start = append(r.start, w.PendingDying()...)
	}
	if barrier != nil {
		barrier(r, 0, r.start)
	}
	d, err := RunRounds(ctx, r, h, r.start, math.MaxInt)
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
	distDriver(t, h, 4, 3, func(r *replicas, k int, _ []int32) {
		workers = r.ws
		barriers++
		for i, w := range r.ws {
			retiredDegreesZero(t, w, "at a barrier")
			if !slices.Equal(w.vAlive, r.ws[0].vAlive) || !slices.Equal(w.eAlive, r.ws[0].eAlive) || !slices.Equal(w.eDeg, r.ws[0].eDeg) {
				t.Fatalf("barrier (%d, %d): replica %d's mirrors differ from replica 0's", k, r.round, i)
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
	}
}

// sameReplica asserts that replica got, restored at a barrier, holds
// what the live replica want holds there: the same mirrors, the same
// shards, and in each the same degree for every alive owned vertex.
func sameReplica(t *testing.T, want, got *DistPeeler, label string) {
	t.Helper()
	if !slices.Equal(got.vAlive, want.vAlive) || !slices.Equal(got.eAlive, want.eAlive) || !slices.Equal(got.eDeg, want.eDeg) {
		t.Fatalf("%s: the restored mirrors differ from the live ones", label)
	}
	for s, p := range want.shards {
		q := got.shards[s]
		if (p == nil) != (q == nil) {
			t.Fatalf("%s: shard %d owned live %t, restored %t", label, s, p != nil, q != nil)
		}
		if p == nil {
			continue
		}
		for j := int32(0); j < p.n; j++ {
			if want.vAlive[p.lo+j] && q.deg[j] != p.deg[j] {
				t.Fatalf("%s: alive vertex %d has degree %d restored, %d live", label, p.lo+j, q.deg[j], p.deg[j])
			}
		}
	}
}

// TestDistPeelerRestoreReplay is the barrier-replay pin.  At every
// barrier of a run, a second set of replicas, scrambled, is restored
// from the run's logs with the live replicas' shards: each must hold
// what its live twin holds (sameReplica) in an exact bucket order, and
// the union of their pending dying lists must hold the same hyperedges
// as the barrier's dying delta.  The restored set then resumes the run
// at that barrier from that union, as a dist worker pool does after a
// recovery: a second RunRounds is handed the live run's deltas up to
// the barrier (replicas.replay), then resumes there over the restored
// set and runs to the end, where it must have recorded Decompose's
// decomposition.  The restored set is reused from barrier to barrier,
// so each restore starts from where the last continuation ended.  It
// covers Cellzome, a 2000-protein proteome and a 2000×2000 banded
// matrix at (shards, replicas) (1, 1), (2, 2), (3, 2) and (4, 3).
func TestDistPeelerRestoreReplay(t *testing.T) {
	banded, err := mmio.ToHypergraph(gen.SyntheticMatrix(gen.MatrixSpec{Name: "banded", Rows: 2000, Cols: 2000, Band: 10, BandFill: 0.7, RandomPerRow: 2, Seed: 0xBE}))
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range []struct {
		name string
		h    *hypergraph.Hypergraph
	}{{"cellzome", dataset.Cellzome().H}, {"proteome", dataset.SyntheticProteome(2000, 300, 5)}, {"banded", banded}} {
		h, want := inst.h, Decompose(inst.h)
		for _, cfg := range [][2]int{{1, 1}, {2, 2}, {3, 2}, {4, 3}} {
			var twin *replicas
			barriers := 0
			got := distDriver(t, h, cfg[0], cfg[1], func(r *replicas, k int, dying []int32) {
				barriers++
				label := fmt.Sprintf("%s at %d shards over %d replicas, barrier (%d, %d)", inst.name, cfg[0], cfg[1], k, r.round)
				if twin == nil {
					twin = newReplicas(t, h, r.part, len(r.ws))
				}
				for _, w := range twin.ws {
					scramble(w)
				}
				twin.restoreFrom(r, 0)
				var union []int32
				for i, w := range twin.ws {
					sameReplica(t, r.ws[i], w, label)
					bucketOrderExact(t, w, k, nil, label+" after Restore")
					union = append(union, w.PendingDying()...)
				}
				if !sameSet(union, dying) {
					t.Fatalf("%s: the restored replicas re-derive the dying union %v, the barrier's is %v", label, union, dying)
				}
				twin.from = &resumePoint{k: k, dying: union}
				twin.replay = r.calls
				cont, err := RunRounds(context.Background(), twin, h, r.start, math.MaxInt)
				if err != nil {
					t.Fatalf("%s: continuation: %v", label, err)
				}
				sameDecomposition(t, want, cont, label+", continuation")
			})
			sameDecomposition(t, want, got, fmt.Sprintf("%s at %d shards over %d replicas", inst.name, cfg[0], cfg[1]))
			t.Logf("%s at %d shards over %d replicas: %d barriers replayed", inst.name, cfg[0], cfg[1], barriers)
		}
	}
}

// sameSet reports whether a and b hold the same IDs, each once.
func sameSet(a, b []int32) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b) && len(slices.Compact(a)) == len(b)
}

// TestDistPeelerReassignment restores the live replicas in place at
// every barrier, scrambled first, with every shard moved to the next
// replica, so each replica's shard set changes at every barrier, as
// when the coordinator hands a dead worker's shards to the survivors,
// and asserts the run stays exact.  Five shards over two replicas own
// three and two, so a replica's shard list grows and shrinks.
func TestDistPeelerReassignment(t *testing.T) {
	h := gen.RandomHypergraph(180, 140, 5, xrand.New(0xFEED))
	moves := 0
	got := distDriver(t, h, 5, 2, func(r *replicas, k int, _ []int32) {
		for _, w := range r.ws {
			scramble(w)
		}
		moves++
		r.restoreFrom(r, moves)
	})
	if moves < 3 {
		t.Fatalf("%d barriers; enlarge the instance", moves)
	}
	sameDecomposition(t, RoundOracle(h, 1), got, "reassigned run")
}

// lostShrink is a Rounds over replicas whose Shrink fails once per
// round that retires a vertex, after Apply named it, as a worker death
// between a round's two votes does; Resume then restores the replicas
// from their logs and resumes at the last barrier, whose k and dying
// delta are last, so RunRounds hands the round out again.
type lostShrink struct {
	*replicas
	last   resumePoint
	lostAt int // the barrier count of the round that failed last
	lost   int
}

var errShrinkLost = errors.New("a replica was lost before its Barrier vote")

func (l *lostShrink) Shrink(ctx context.Context, k int, retired []int32) ([]int32, error) {
	if len(retired) > 0 && l.lostAt != l.round {
		l.lostAt, l.lost = l.round, l.lost+1
		return nil, errShrinkLost
	}
	dying, err := l.replicas.Shrink(ctx, k, retired)
	l.last = resumePoint{k: k, dying: dying}
	return dying, err
}

func (l *lostShrink) Resume(err error) (int, []int32, error) {
	if !errors.Is(err, errShrinkLost) {
		return 0, nil, err
	}
	l.restoreFrom(l.replicas, 0)
	return l.last.k, l.last.dying, nil
}

// TestRunRoundsReplayCountsOnce replays every round that retires a
// vertex (lostShrink): the replayed Apply names the vertices the lost
// round's Apply named, and RunRounds must count each of them once, so
// the run still ends at the fixpoint where none is alive with
// Decompose's decomposition.  A count that took them twice would reach
// 0 at a fixpoint with vertices alive, or pass it and fail at level
// ΔV + 1.
func TestRunRoundsReplayCountsOnce(t *testing.T) {
	for _, h := range []*hypergraph.Hypergraph{
		dataset.Cellzome().H,
		gen.RandomHypergraph(180, 140, 5, xrand.New(0x10C7)),
	} {
		for _, cfg := range [][2]int{{1, 1}, {3, 2}} {
			label := fmt.Sprintf("%v at %d shards over %d replicas", h, cfg[0], cfg[1])
			l := &lostShrink{replicas: newReplicas(t, h, partition.Build(h, cfg[0]), cfg[1]), lostAt: -1}
			l.restoreFrom(l.replicas, 0)
			for _, w := range l.ws {
				l.last.dying = append(l.last.dying, w.PendingDying()...)
			}
			got, err := RunRounds(context.Background(), l, h, l.last.dying, math.MaxInt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if l.lost < 3 {
				t.Fatalf("%s: %d rounds replayed; enlarge the instance", label, l.lost)
			}
			sameDecomposition(t, Decompose(h), got, label)
		}
	}
}

// TestDistPeelerRestoreValidation pins Restore's defenses against its
// wire input: a hyperedge or vertex ID outside the hypergraph and a
// shard outside the partition are each an error, not an index panic.
// Empty logs return a used replica to the state a new replica restored
// from them holds, a repeated ID changes nothing, and a restore
// allocates only the two objects of each shard it lays out
// (TestNewShardSingleArena).
func TestDistPeelerRestoreValidation(t *testing.T) {
	ctx := context.Background()
	h := gen.RandomHypergraph(40, 30, 4, xrand.New(1))
	part := partition.Build(h, 3)
	w := NewDistPeeler(h, part)
	nv, ne := int32(h.NumVertices()), int32(h.NumEdges())
	for _, bad := range []struct {
		dead, retired, shards []int32
		want                  string
	}{
		{dead: []int32{0, -1}, want: "core: restore: hyperedge -1 is outside [0, 30)"},
		{dead: []int32{ne}, want: "core: restore: hyperedge 30 is outside [0, 30)"},
		{retired: []int32{-1}, want: "core: restore: vertex -1 is outside [0, 40)"},
		{retired: []int32{nv}, want: "core: restore: vertex 40 is outside [0, 40)"},
		{shards: []int32{-1}, want: "core: restore: shard -1 is not one of 3"},
		{shards: []int32{1, 3}, want: "core: restore: shard 3 is not one of 3"},
	} {
		if err := w.Restore(ctx, bad.dead, bad.retired, bad.shards); err == nil || err.Error() != bad.want {
			t.Errorf("Restore(%v, %v, %v): err = %v, want %s", bad.dead, bad.retired, bad.shards, err, bad.want)
		}
	}

	one := []int32{1}
	fresh := NewDistPeeler(h, part)
	if err := fresh.Restore(ctx, nil, nil, one); err != nil {
		t.Fatal(err)
	}
	if err := w.Restore(ctx, nil, nil, one); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Apply(ctx, 2, []int32{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Restore(ctx, nil, nil, one); err != nil {
		t.Fatal(err)
	}
	sameReplica(t, fresh, w, "empty logs")
	if !slices.Equal(w.PendingDying(), fresh.PendingDying()) {
		t.Error("Restore with empty logs left the replica off the initial round-0 reduction")
	}

	dead, retired, shards := []int32{0, 5}, []int32{1, 2, 3}, []int32{0, 2}
	ref := NewDistPeeler(h, part)
	if err := ref.Restore(ctx, dead, retired, shards); err != nil {
		t.Fatal(err)
	}
	if err := w.Restore(ctx, []int32{5, 0, 5}, []int32{3, 1, 2, 1}, []int32{2, 0, 2}); err != nil {
		t.Fatal(err)
	}
	sameReplica(t, ref, w, "logs with repeats")
	if a := testing.AllocsPerRun(20, func() {
		if err := w.Restore(ctx, dead, retired, shards); err != nil {
			t.Fatal(err)
		}
	}); a != 2*float64(len(shards)) {
		t.Errorf("Restore of %d shards made %v allocations, want %d", len(shards), a, 2*len(shards))
	}
}

// TestDistPeelerRestoreForgets moves a replica off its run: a Restore
// to a state that revives what the replica had seen die must drop the
// detector's certificates, or a stale one answers a test.  With g =
// {0, 1, 2, 3} in the dead log no alive hyperedge holds f = {0, 1, 2},
// so the restore's test of f certifies its witnesses 0 and 2, and
// retiring vertex 1 leaves f = {0, 2} alive.  Restored with g alive,
// the restore's test and the same retirement must both find f
// contained in g, whose witnesses 0 and 2 are alive again.
func TestDistPeelerRestoreForgets(t *testing.T) {
	ctx := context.Background()
	h, err := hypergraph.FromEdgeSets(4, [][]int32{{0, 1, 2}, {0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	w := NewDistPeeler(h, partition.Build(h, 1))
	for _, tc := range []struct {
		name  string
		dead  []int32
		dying []int32
	}{
		{"g dead", []int32{1}, nil},
		{"g alive", nil, []int32{0}},
	} {
		if err := w.Restore(ctx, tc.dead, nil, []int32{0}); err != nil {
			t.Fatal(err)
		}
		if dying := w.PendingDying(); !slices.Equal(dying, tc.dying) {
			t.Errorf("%s: the restore finds %v dying, want %v", tc.name, dying, tc.dying)
		}
		dying, err := w.Shrink(ctx, 1, []int32{1})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dying, tc.dying) {
			t.Errorf("%s: retiring vertex 1 kills %v, want %v", tc.name, dying, tc.dying)
		}
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
