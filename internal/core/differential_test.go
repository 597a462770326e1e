// Differential tests validating the fast core implementations against
// the naive oracles and invariant checkers in internal/check, over a
// deterministic generator sweep plus the Cellzome dataset.  This file
// is an external test package because check imports core.
package core_test

import (
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
	"hyperplex/internal/xrand"
)

// TestDifferentialKCore checks KCore against the in-package naive
// implementation, check's independent fixpoint oracle and the paper's
// overlap-count peel (check.OverlapCore) on every sweep instance, then
// on the Cellzome hypergraph.
func TestDifferentialKCore(t *testing.T) {
	for i, h := range check.Instances(58, 0xC04E1) {
		for _, k := range []int{0, 1, 2, 3} {
			r := core.KCore(h, k)
			if err := check.ValidCore(h, k, r); err != nil {
				t.Fatalf("instance %d %v, k=%d: %v", i, h, k, err)
			}
			if err := check.SameResult(h, r, core.KCoreNaive(h, k)); err != nil {
				t.Fatalf("instance %d %v, k=%d: KCore vs KCoreNaive: %v", i, h, k, err)
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

// TestDifferentialKCoreParallel exercises the concurrent peeler with 1,
// 2 and NumCPU workers (run under -race in CI) and requires agreement
// with the paper's overlap-count peel plus the invariant checker, and
// that no worker goroutine outlives the calls.
func TestDifferentialKCoreParallel(t *testing.T) {
	snapshot := check.GoroutineSnapshot()
	defer func() {
		if err := check.CheckNoLeaks(snapshot, 2*time.Second); err != nil {
			t.Error(err)
		}
	}()
	workers := []int{1, 2, runtime.NumCPU()}
	for i, h := range check.Instances(58, 0xC04E2) {
		for _, k := range []int{1, 2, 3} {
			want := check.OverlapCore(h, k, 1)
			for _, w := range workers {
				got := core.KCoreParallel(h, k, w)
				if err := check.SameResult(h, got, want); err != nil {
					t.Fatalf("instance %d %v, k=%d, workers=%d: parallel vs the overlap peel: %v", i, h, k, w, err)
				}
			}
			if err := check.ValidCore(h, k, core.KCoreParallel(h, k, 2)); err != nil {
				t.Fatalf("instance %d %v, k=%d: %v", i, h, k, err)
			}
		}
	}
	h := dataset.Cellzome().H
	want := check.OverlapCore(h, 6, 1)
	for _, w := range workers {
		got := core.KCoreParallel(h, 6, w)
		if err := check.SameResult(h, got, want); err != nil {
			t.Fatalf("Cellzome k=6, workers=%d: %v", w, err)
		}
	}
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

// TestDifferentialCSRDecompose pins the flat-array bucket-queue kernel
// (internal/csr, reached through core.Decompose) to the paper's
// level-by-level overlap-count peel (check.OverlapDecompose) and to the
// sharded engine.  Against the overlap peel it uses the sharded
// differential's protocol: exact vertex coreness and MaxK, per-level
// hyperedge member-set families via SameResult (the overlap peel may
// keep another member of an equal-set family), the independent
// fixpoint oracle, and the Cellzome golden numbers.
// Against the sharded engine it is byte equality — vertex coreness,
// edge coreness and MaxK — at every shard count: the CSR peeler runs
// the sharded engine's rounds, so both keep the same member of every
// equal-set family.  No goroutine may outlive the calls — the CSR
// kernel is sequential, so a leak here would mean the sharded
// comparator leaked.
func TestDifferentialCSRDecompose(t *testing.T) {
	snapshot := check.GoroutineSnapshot()
	defer func() {
		if err := check.CheckNoLeaks(snapshot, 2*time.Second); err != nil {
			t.Error(err)
		}
	}()
	sameAsSharded := func(label string, h *hypergraph.Hypergraph, got *core.Decomposition) {
		t.Helper()
		for _, shards := range []int{1, 2, 3, runtime.NumCPU(), h.NumVertices() + 13} {
			sharded := core.ShardedDecompose(h, core.ShardedOptions{Shards: shards})
			switch {
			case sharded.MaxK != got.MaxK:
				t.Fatalf("%s, shards=%d: sharded MaxK %d vs CSR %d", label, shards, sharded.MaxK, got.MaxK)
			case !slices.Equal(sharded.VertexCoreness, got.VertexCoreness):
				t.Fatalf("%s, shards=%d: vertex coreness differs from CSR:\nsharded %v\nCSR     %v", label, shards, sharded.VertexCoreness, got.VertexCoreness)
			case !slices.Equal(sharded.EdgeCoreness, got.EdgeCoreness):
				t.Fatalf("%s, shards=%d: edge coreness differs from CSR:\nsharded %v\nCSR     %v", label, shards, sharded.EdgeCoreness, got.EdgeCoreness)
			}
		}
	}
	for i, h := range check.Instances(58, 0xC04E6) {
		want := check.OverlapDecompose(h)
		got := core.Decompose(h)
		if got.MaxK != want.MaxK {
			t.Fatalf("instance %d %v: CSR MaxK = %d, want %d", i, h, got.MaxK, want.MaxK)
		}
		for v, c := range want.VertexCoreness {
			if got.VertexCoreness[v] != c {
				t.Fatalf("instance %d %v: CSR vertex %d coreness %d, want %d",
					i, h, v, got.VertexCoreness[v], c)
			}
		}
		for k := 1; k <= want.MaxK; k++ {
			if err := check.SameResult(h, got.Core(k), want.Core(k)); err != nil {
				t.Fatalf("instance %d %v, k=%d: CSR vs the overlap peel: %v", i, h, k, err)
			}
		}
		if err := check.ValidDecomposition(h, got); err != nil {
			t.Fatalf("instance %d %v: CSR decomposition: %v", i, h, err)
		}
		sameAsSharded(fmt.Sprintf("instance %d %v", i, h), h, got)
	}
	h := dataset.Cellzome().H
	want := check.OverlapDecompose(h)
	got := core.Decompose(h)
	if got.MaxK != 6 {
		t.Fatalf("Cellzome CSR MaxK = %d, want 6", got.MaxK)
	}
	for v, c := range want.VertexCoreness {
		if got.VertexCoreness[v] != c {
			t.Fatalf("Cellzome: CSR vertex %d coreness %d, want %d", v, got.VertexCoreness[v], c)
		}
	}
	r6 := got.Core(6)
	if err := check.SameResult(h, r6, want.Core(6)); err != nil {
		t.Fatalf("Cellzome 6-core: CSR vs the overlap peel: %v", err)
	}
	if err := check.ValidCore(h, 6, r6); err != nil {
		t.Fatalf("Cellzome CSR 6-core: %v", err)
	}
	if r6.NumVertices != 41 || r6.NumEdges != 54 {
		t.Fatalf("Cellzome CSR 6-core is %d/%d, want the paper's 41/54", r6.NumVertices, r6.NumEdges)
	}
	sameAsSharded("Cellzome", h, got)

	// hggen -dataset random -nv 60 -ne 80 -maxsize 6 -seed 39: a
	// peeler that tests containment after each single deletion keeps
	// another member of an equal-set family here than the rounds do.
	h = gen.RandomHypergraph(60, 80, 6, xrand.New(39))
	sameAsSharded("random seed 39", h, core.Decompose(h))
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
// MaxCore, which read their answers off one csr.Decompose, to the
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
