// Differential tests validating the fast core implementations against
// the naive oracles and invariant checkers in internal/check, over a
// deterministic generator sweep plus the Cellzome dataset.  This file
// is an external test package because check imports core.
package core_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"hyperplex/internal/check"
	"hyperplex/internal/core"
	"hyperplex/internal/dataset"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/run"
	"hyperplex/internal/xrand"
)

// TestDifferentialKCore checks KCore against check's independent
// fixpoint oracle (check.KCoreOracle) and the paper's overlap-count
// peel (check.OverlapCore) on every sweep instance, then on the
// Cellzome hypergraph.
func TestDifferentialKCore(t *testing.T) {
	for i, h := range check.Instances(58, 0xC04E1) {
		for _, k := range []int{0, 1, 2, 3} {
			r := core.KCore(h, k)
			if err := check.ValidCore(h, k, r); err != nil {
				t.Fatalf("instance %d %v, k=%d: %v", i, h, k, err)
			}
			if err := check.SameResult(h, r, oracleCore(h, k)); err != nil {
				t.Fatalf("instance %d %v, k=%d: KCore vs check.KCoreOracle: %v", i, h, k, err)
			}
			if err := check.SameResult(h, r, check.OverlapCore(h, k, 1)); err != nil {
				t.Fatalf("instance %d %v, k=%d: KCore vs the overlap peel: %v", i, h, k, err)
			}
		}
	}
	h := dataset.Cellzome().H
	for _, k := range []int{1, 6, 7} {
		r := core.KCore(h, k)
		if err := check.ValidCore(h, k, r); err != nil {
			t.Fatalf("Cellzome k=%d: %v", k, err)
		}
		if err := check.SameResult(h, r, check.OverlapCore(h, k, 1)); err != nil {
			t.Fatalf("Cellzome k=%d: KCore vs the overlap peel: %v", k, err)
		}
	}
	if r6 := core.KCore(h, 6); r6.NumVertices != 41 || r6.NumEdges != 54 {
		t.Fatalf("Cellzome 6-core is %d/%d, want the paper's 41/54", r6.NumVertices, r6.NumEdges)
	}
}

// TestDifferentialCappedPeel holds the peel stopped at level kmax to
// the round oracle (check.RoundDecompose): over a wide sweep, Cellzome
// and a human-scale proteome, at l ∈ {1, …, 4} and every cap from 1 to
// MaxK+1, each vertex and hyperedge coreness must equal the oracle's
// capped at kmax, by ID, and MaxK must be min(MaxK, kmax); the cap
// MaxK+1 is the full decomposition.  KCore and BiCore, which stop at
// level k, must return exactly Core(k) of the oracle's decomposition,
// the same hyperedge IDs included.
func TestDifferentialCappedPeel(t *testing.T) {
	capped := func(c []int, kmax int) []int {
		out := make([]int, len(c))
		for i, x := range c {
			out[i] = min(x, kmax)
		}
		return out
	}
	instances := append(check.Instances(300, 7), dataset.Cellzome().H, dataset.SyntheticProteome(20000, 3000, 0x42A1))
	for i, h := range instances {
		for l := 1; l <= 4; l++ {
			full := check.RoundDecompose(h, l)
			for kmax := 1; kmax <= full.MaxK+1; kmax++ {
				got, err := core.DecomposeL(context.Background(), h, l, kmax)
				switch {
				case err != nil:
					t.Fatalf("instance %d %v, l=%d, kmax=%d: %v", i, h, l, kmax, err)
				case got.MaxK != min(full.MaxK, kmax):
					t.Fatalf("instance %d %v, l=%d, kmax=%d: MaxK %d, oracle %d", i, h, l, kmax, got.MaxK, full.MaxK)
				case !slices.Equal(got.VertexCoreness, capped(full.VertexCoreness, kmax)):
					t.Fatalf("instance %d %v, l=%d, kmax=%d: vertex coreness is not the oracle's capped", i, h, l, kmax)
				case !slices.Equal(got.EdgeCoreness, capped(full.EdgeCoreness, kmax)):
					t.Fatalf("instance %d %v, l=%d, kmax=%d: edge coreness is not the oracle's capped", i, h, l, kmax)
				}
			}
			for k := 0; k <= full.MaxK+1; k++ {
				if got, want := core.BiCore(h, k, l), full.Core(k); !sameIDs(got, want) {
					t.Fatalf("instance %d %v: BiCore(%d, %d) differs from Core(%d) of the oracle's decomposition", i, h, k, l, k)
				}
				if l > 1 {
					continue
				}
				if got, want := core.KCore(h, k), full.Core(k); !sameIDs(got, want) {
					t.Fatalf("instance %d %v: KCore(%d) differs from Core(%d) of the oracle's decomposition", i, h, k, k)
				}
			}
		}
	}
}

// sameIDs reports whether two cores hold the same vertex and hyperedge
// IDs at the same level.
func sameIDs(a, b *core.Result) bool {
	return a.K == b.K && a.NumVertices == b.NumVertices && a.NumEdges == b.NumEdges &&
		slices.Equal(a.VertexIn, b.VertexIn) && slices.Equal(a.EdgeIn, b.EdgeIn)
}

// TestDifferentialShardedDecompose points the differential driver at
// the sharded engine: for shard counts {1, 2, 3, NumCPU} and a count
// larger than the vertex count (exercising the clamp), the vertex
// coreness vector and MaxK must equal the paper's overlap-count peel
// (check.OverlapDecompose) exactly, and every core level must contain
// the same hyperedge family (the overlap peel may keep another copy of
// an equal-set family than the rounds do, so levels are compared as
// member-set families via SameResult).  Each instance's sharded
// decomposition is also validated level by level against the
// independent fixpoint oracle, and no worker goroutine may outlive the
// calls.
func TestDifferentialShardedDecompose(t *testing.T) {
	snapshot := check.GoroutineSnapshot()
	defer func() {
		if err := check.CheckNoLeaks(snapshot, 2*time.Second); err != nil {
			t.Error(err)
		}
	}()
	for i, h := range check.Instances(58, 0xC04E5) {
		want := check.OverlapDecompose(h)
		shardCounts := []int{1, 2, 3, runtime.NumCPU(), h.NumVertices() + 13}
		for _, shards := range shardCounts {
			got := core.ShardedDecompose(h, core.ShardedOptions{Shards: shards})
			if got.MaxK != want.MaxK {
				t.Fatalf("instance %d %v, shards=%d: MaxK = %d, want %d", i, h, shards, got.MaxK, want.MaxK)
			}
			for v, c := range want.VertexCoreness {
				if got.VertexCoreness[v] != c {
					t.Fatalf("instance %d %v, shards=%d: vertex %d coreness %d, want %d",
						i, h, shards, v, got.VertexCoreness[v], c)
				}
			}
			for k := 1; k <= want.MaxK; k++ {
				if err := check.SameResult(h, got.Core(k), want.Core(k)); err != nil {
					t.Fatalf("instance %d %v, shards=%d, k=%d: sharded vs the overlap peel: %v", i, h, shards, k, err)
				}
			}
		}
		got := core.ShardedDecompose(h, core.ShardedOptions{Shards: 3})
		if err := check.ValidDecomposition(h, got); err != nil {
			t.Fatalf("instance %d %v, shards=3: %v", i, h, err)
		}
	}
	h := dataset.Cellzome().H
	want := check.OverlapDecompose(h)
	for _, shards := range []int{1, 2, 3, runtime.NumCPU(), h.NumVertices() + 13} {
		got := core.ShardedDecompose(h, core.ShardedOptions{Shards: shards})
		if got.MaxK != 6 {
			t.Fatalf("Cellzome shards=%d: MaxK = %d, want 6", shards, got.MaxK)
		}
		for v, c := range want.VertexCoreness {
			if got.VertexCoreness[v] != c {
				t.Fatalf("Cellzome shards=%d: vertex %d coreness %d, want %d", shards, v, got.VertexCoreness[v], c)
			}
		}
		r6 := got.Core(6)
		if err := check.SameResult(h, r6, want.Core(6)); err != nil {
			t.Fatalf("Cellzome shards=%d, 6-core: %v", shards, err)
		}
		if err := check.ValidCore(h, 6, r6); err != nil {
			t.Fatalf("Cellzome shards=%d: %v", shards, err)
		}
		if r6.NumVertices != 41 || r6.NumEdges != 54 {
			t.Fatalf("Cellzome shards=%d: 6-core is %d/%d, want the paper's 41/54", shards, r6.NumVertices, r6.NumEdges)
		}
	}
}

// TestDifferentialRoundDecompose pins Decompose to the round oracle
// (check.RoundDecompose) byte for byte — vertex coreness, edge
// coreness and MaxK — and so to every shard count of ShardedDecompose,
// which must equal it too: all of them run one round schedule, so they
// keep the same member of every equal-set family.  The benchmark-scale
// instances, the banded 8000x8000 file and the 20000-protein proteome,
// are checked at 1 and 2 shards: every engine runs the one containment
// detector, so only the oracle can catch a detector fault there.
// Against the paper's level-by-level overlap-count peel
// (check.OverlapDecompose) it uses the sharded differential's
// protocol: exact vertex coreness and MaxK, per-level hyperedge
// member-set families via SameResult (the overlap peel may keep another
// member of an equal-set family), the independent fixpoint oracle, and
// the Cellzome golden numbers.  No goroutine may outlive the calls.
func TestDifferentialRoundDecompose(t *testing.T) {
	snapshot := check.GoroutineSnapshot()
	defer func() {
		if err := check.CheckNoLeaks(snapshot, 2*time.Second); err != nil {
			t.Error(err)
		}
	}()
	everyShardCount := func(h *hypergraph.Hypergraph) []int {
		return []int{1, 2, 3, runtime.NumCPU(), h.NumVertices() + 13}
	}
	sameAsRounds := func(label string, h *hypergraph.Hypergraph, got *core.Decomposition, shardCounts []int) {
		t.Helper()
		want := check.RoundDecompose(h, 1)
		same := func(route string, got *core.Decomposition) {
			t.Helper()
			switch {
			case got.MaxK != want.MaxK:
				t.Fatalf("%s, %s: MaxK %d, oracle %d", label, route, got.MaxK, want.MaxK)
			case !slices.Equal(got.VertexCoreness, want.VertexCoreness):
				t.Fatalf("%s, %s: vertex coreness differs from the oracle:\ngot    %v\noracle %v", label, route, got.VertexCoreness, want.VertexCoreness)
			case !slices.Equal(got.EdgeCoreness, want.EdgeCoreness):
				t.Fatalf("%s, %s: edge coreness differs from the oracle:\ngot    %v\noracle %v", label, route, got.EdgeCoreness, want.EdgeCoreness)
			}
		}
		same("Decompose", got)
		for _, shards := range shardCounts {
			same(fmt.Sprintf("shards=%d", shards), core.ShardedDecompose(h, core.ShardedOptions{Shards: shards}))
		}
	}
	for i, h := range check.Instances(58, 0xC04E6) {
		want := check.OverlapDecompose(h)
		got := core.Decompose(h)
		if got.MaxK != want.MaxK {
			t.Fatalf("instance %d %v: MaxK = %d, want %d", i, h, got.MaxK, want.MaxK)
		}
		for v, c := range want.VertexCoreness {
			if got.VertexCoreness[v] != c {
				t.Fatalf("instance %d %v: vertex %d coreness %d, want %d",
					i, h, v, got.VertexCoreness[v], c)
			}
		}
		for k := 1; k <= want.MaxK; k++ {
			if err := check.SameResult(h, got.Core(k), want.Core(k)); err != nil {
				t.Fatalf("instance %d %v, k=%d: Decompose vs the overlap peel: %v", i, h, k, err)
			}
		}
		if err := check.ValidDecomposition(h, got); err != nil {
			t.Fatalf("instance %d %v: %v", i, h, err)
		}
		sameAsRounds(fmt.Sprintf("instance %d %v", i, h), h, got, everyShardCount(h))
	}
	h := dataset.Cellzome().H
	want := check.OverlapDecompose(h)
	got := core.Decompose(h)
	if got.MaxK != 6 {
		t.Fatalf("Cellzome MaxK = %d, want 6", got.MaxK)
	}
	for v, c := range want.VertexCoreness {
		if got.VertexCoreness[v] != c {
			t.Fatalf("Cellzome: vertex %d coreness %d, want %d", v, got.VertexCoreness[v], c)
		}
	}
	r6 := got.Core(6)
	if err := check.SameResult(h, r6, want.Core(6)); err != nil {
		t.Fatalf("Cellzome 6-core: Decompose vs the overlap peel: %v", err)
	}
	if err := check.ValidCore(h, 6, r6); err != nil {
		t.Fatalf("Cellzome 6-core: %v", err)
	}
	if r6.NumVertices != 41 || r6.NumEdges != 54 {
		t.Fatalf("Cellzome 6-core is %d/%d, want the paper's 41/54", r6.NumVertices, r6.NumEdges)
	}
	sameAsRounds("Cellzome", h, got, everyShardCount(h))

	// hggen -dataset random -nv 60 -ne 80 -maxsize 6 -seed 39: a
	// peeler that tests containment after each single deletion keeps
	// another member of an equal-set family here than the rounds do.
	h = gen.RandomHypergraph(60, 80, 6, xrand.New(39))
	sameAsRounds("random seed 39", h, core.Decompose(h), everyShardCount(h))
	h = dataset.SyntheticProteome(2000, 300, 5)
	sameAsRounds("proteome 2000x300", h, core.Decompose(h), everyShardCount(h))

	h, err := mmio.ToHypergraph(gen.SyntheticMatrix(gen.MatrixSpec{Name: "bench", Rows: 8000, Cols: 8000, Band: 10, BandFill: 0.7, RandomPerRow: 2, Seed: 0xBE}))
	if err != nil {
		t.Fatal(err)
	}
	sameAsRounds("banded 8000x8000", h, core.Decompose(h), []int{1, 2})
	h = dataset.SyntheticProteome(20000, 3000, 42)
	sameAsRounds("proteome 20000x3000", h, core.Decompose(h), []int{1, 2})
}

// biCorePairs are the (k, l) pairs of the (k, l)-core differentials.
var biCorePairs = [][2]int{{0, 2}, {1, 2}, {2, 2}, {1, 3}, {3, 1}, {2, 4}}

// TestDifferentialBiCore checks the (k, l)-core peeler against the
// definitional fixpoint oracle and the paper's overlap-count peel.
func TestDifferentialBiCore(t *testing.T) {
	for i, h := range check.Instances(58, 0xC04E3) {
		for _, kl := range biCorePairs {
			r := core.BiCore(h, kl[0], kl[1])
			if err := check.ValidBiCore(h, kl[0], kl[1], r); err != nil {
				t.Fatalf("instance %d %v, k=%d, l=%d: %v", i, h, kl[0], kl[1], err)
			}
			if err := check.SameResult(h, r, check.OverlapCore(h, kl[0], kl[1])); err != nil {
				t.Fatalf("instance %d %v, k=%d, l=%d: BiCore vs the overlap peel: %v", i, h, kl[0], kl[1], err)
			}
		}
	}
	h := dataset.Cellzome().H
	r := core.BiCore(h, 2, 3)
	if err := check.ValidBiCore(h, 2, 3, r); err != nil {
		t.Fatalf("Cellzome (2,3)-core: %v", err)
	}
	if err := check.SameResult(h, r, check.OverlapCore(h, 2, 3)); err != nil {
		t.Fatalf("Cellzome (2,3)-core: BiCore vs the overlap peel: %v", err)
	}
}

// TestDifferentialCoreRoutesMatchOverlapPeel holds KCore, BiCore and
// MaxCore, which read their answers off one peel, to the
// definitional checkers and to the paper's overlap-count peel on a wide
// sweep, Cellzome and a human-scale proteome.
func TestDifferentialCoreRoutesMatchOverlapPeel(t *testing.T) {
	instances := append(check.Instances(300, 7), dataset.Cellzome().H, dataset.SyntheticProteome(20000, 3000, 0x42A1))
	for i, h := range instances {
		for _, kl := range biCorePairs {
			k, l := kl[0], kl[1]
			r := core.BiCore(h, k, l)
			if err := check.ValidBiCore(h, k, l, r); err != nil {
				t.Fatalf("instance %d %v: BiCore(%d, %d): %v", i, h, k, l, err)
			}
			if err := check.SameResult(h, r, check.OverlapCore(h, k, l)); err != nil {
				t.Fatalf("instance %d %v: BiCore(%d, %d) vs the overlap peel: %v", i, h, k, l, err)
			}
			r = core.KCore(h, k)
			if err := check.ValidCore(h, k, r); err != nil {
				t.Fatalf("instance %d %v: KCore(%d): %v", i, h, k, err)
			}
			if err := check.SameResult(h, r, check.OverlapCore(h, k, 1)); err != nil {
				t.Fatalf("instance %d %v: KCore(%d) vs the overlap peel: %v", i, h, k, err)
			}
		}
		mc := core.MaxCore(h)
		if want := check.OverlapDecompose(h).MaxK; mc.K != want {
			t.Fatalf("instance %d %v: MaxCore is the %d-core, the overlap peel's maximum is %d", i, h, mc.K, want)
		}
		if err := check.ValidCore(h, mc.K, mc); err != nil {
			t.Fatalf("instance %d %v: MaxCore: %v", i, h, err)
		}
		if err := check.SameResult(h, mc, check.OverlapCore(h, mc.K, 1)); err != nil {
			t.Fatalf("instance %d %v: MaxCore vs the overlap peel: %v", i, h, err)
		}
	}
}

// TestDifferentialDecompose validates the full decomposition level by
// level against the oracle on the sweep, level 0 included, and
// spot-checks the Cellzome maximum core against the paper's numbers.
func TestDifferentialDecompose(t *testing.T) {
	for i, h := range check.Instances(58, 0xC04E4) {
		d := core.Decompose(h)
		if err := check.ValidDecomposition(h, d); err != nil {
			t.Fatalf("instance %d %v: %v", i, h, err)
		}
		if err := check.ValidCore(h, 0, d.Core(0)); err != nil {
			t.Fatalf("instance %d %v: Core(0): %v", i, h, err)
		}
	}
	h := dataset.Cellzome().H
	d := core.Decompose(h)
	if d.MaxK != 6 {
		t.Fatalf("Cellzome MaxK = %d, want 6", d.MaxK)
	}
	r := d.Core(6)
	if err := check.ValidCore(h, 6, r); err != nil {
		t.Fatalf("Cellzome decomposition 6-core: %v", err)
	}
}

// TestPeelStepPins pins the meter's step count of DecomposeCtx and of
// KCoreCtx, which stops the same peel at level k, exactly: the
// operations are deterministic, so any change to what the peel does
// or charges moves a pin.  A change may re-record a pin only when it
// changes the peel's work or its charging on purpose, and it gives the
// reason in CHANGES.md.
func TestPeelStepPins(t *testing.T) {
	banded, err := mmio.ToHypergraph(gen.SyntheticMatrix(gen.MatrixSpec{Name: "bench", Rows: 8000, Cols: 8000, Band: 10, BandFill: 0.7, RandomPerRow: 2, Seed: 0xBE}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		h         *hypergraph.Hypergraph
		decompose int64
		kcore     map[int]int64
	}{
		{"Cellzome", dataset.Cellzome().H, 12572, map[int]int64{2: 8896, 6: 11694}},
		{"banded 8000x8000", banded, 1021326, map[int]int64{2: 321575, 8: 321587}},
		{"proteome 20000x3000", dataset.SyntheticProteome(20000, 3000, 42), 838394, map[int]int64{2: 240579, 14: 770935}},
	} {
		ctx, meter := run.WithBudget(context.Background(), run.Budget{})
		if _, err := core.DecomposeCtx(ctx, tc.h); err != nil {
			t.Fatal(err)
		}
		if got := meter.Steps(); got != tc.decompose {
			t.Errorf("%s: DecomposeCtx charged %d steps, pinned %d", tc.name, got, tc.decompose)
		}
		for k, want := range tc.kcore {
			ctx, meter := run.WithBudget(context.Background(), run.Budget{})
			if _, err := core.KCoreCtx(ctx, tc.h, k); err != nil {
				t.Fatal(err)
			}
			if got := meter.Steps(); got != want {
				t.Errorf("%s: KCoreCtx(%d) charged %d steps, pinned %d", tc.name, k, got, want)
			}
		}
	}
}
