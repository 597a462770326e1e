package partition_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"

	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/partition"
	"hyperplex/internal/run"
	"hyperplex/internal/xrand"
)

func instances(t *testing.T) []*hypergraph.Hypergraph {
	t.Helper()
	giant, err := hypergraph.FromEdgeSets(12, [][]int32{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, // spans every block
		{0, 1}, {5, 6}, {10, 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := []*hypergraph.Hypergraph{giant}
	rng := xrand.New(0x9A57)
	for i := 0; i < 8; i++ {
		out = append(out, gen.RandomHypergraph(5+rng.Intn(60), 1+rng.Intn(40), 1+rng.Intn(7), rng))
	}
	return out
}

// validate checks the partition invariants: consecutive non-empty
// vertex blocks covering V, and every hyperedge owned once, by the
// shard of its first member, in ascending lists sized exactly.
func validate(t *testing.T, h *hypergraph.Hypergraph, p *partition.Partition) {
	t.Helper()
	nv, ne := h.NumVertices(), h.NumEdges()
	next := int32(0)
	for s, sh := range p.Shards {
		if sh.First != next {
			t.Fatalf("shard %d block starts at %d, want %d", s, sh.First, next)
		}
		if sh.Count == 0 && nv > 0 {
			t.Fatalf("shard %d owns no vertices", s)
		}
		for v := sh.First; v < sh.First+sh.Count; v++ {
			if p.VertexOwner[v] != int32(s) {
				t.Fatalf("vertex %d: owner %d, in the block of shard %d", v, p.VertexOwner[v], s)
			}
		}
		next += sh.Count
	}
	if int(next) != nv {
		t.Fatalf("blocks cover %d of %d vertices", next, nv)
	}
	seenF := make([]bool, ne)
	for s, sh := range p.Shards {
		if cap(sh.Edges) != len(sh.Edges) || !slices.IsSorted(sh.Edges) {
			t.Fatalf("shard %d hyperedge list %v (cap %d) is not ascending and exactly sized", s, sh.Edges, cap(sh.Edges))
		}
		for _, f := range sh.Edges {
			if seenF[f] {
				t.Fatalf("hyperedge %d owned twice", f)
			}
			seenF[f] = true
			if p.EdgeOwner[f] != int32(s) {
				t.Fatalf("hyperedge %d: owner %d, listed in shard %d", f, p.EdgeOwner[f], s)
			}
			if members := h.Vertices(int(f)); len(members) > 0 && p.VertexOwner[members[0]] != int32(s) {
				t.Fatalf("hyperedge %d not anchored at first member", f)
			}
		}
	}
	for f := 0; f < ne; f++ {
		if !seenF[f] {
			t.Fatalf("hyperedge %d unowned", f)
		}
	}
}

func TestBuildInvariants(t *testing.T) {
	for i, h := range instances(t) {
		for _, shards := range []int{1, 2, 3, 5, runtime.NumCPU(), h.NumVertices() + 7} {
			p := partition.Build(h, shards)
			want := partition.NormalizeShards(shards, h.NumVertices())
			if p.NumShards() != want {
				t.Fatalf("instance %d %v shards=%d: got %d shards, want %d", i, h, shards, p.NumShards(), want)
			}
			validate(t, h, p)
		}
	}
}

func TestNormalizeShards(t *testing.T) {
	cases := []struct{ shards, nv, want int }{
		{0, 100, runtime.NumCPU()},
		{-3, 100, runtime.NumCPU()},
		{4, 100, 4},
		{7, 3, 3},
		{5, 0, 1},
		{1, 1, 1},
		{100000, 200000, 512},
	}
	for _, c := range cases {
		if c.nv < c.want { // NumCPU may exceed tiny nv
			c.want = c.nv
		}
		if got := partition.NormalizeShards(c.shards, c.nv); got != c.want && !(c.nv == 0 && got == 1) {
			t.Errorf("NormalizeShards(%d, %d) = %d, want %d", c.shards, c.nv, got, c.want)
		}
	}
}

func TestBuildEmptyHypergraph(t *testing.T) {
	h, err := hypergraph.FromEdgeSets(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := partition.Build(h, 4)
	if p.NumShards() != 1 {
		t.Fatalf("empty hypergraph: %d shards, want 1", p.NumShards())
	}
	validate(t, h, p)
}

func TestBuildCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := gen.RandomHypergraph(50, 30, 4, xrand.New(1))
	if _, err := partition.BuildCtx(ctx, h, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err = %v, want context.Canceled", err)
	}
}

func TestBuildCtxBudget(t *testing.T) {
	h := gen.RandomHypergraph(500, 300, 5, xrand.New(2))
	ctx, m := run.WithBudget(context.Background(), run.Budget{MaxSteps: 1})
	_ = m
	if _, err := partition.BuildCtx(ctx, h, 4); !errors.Is(err, run.ErrBudgetExceeded) {
		t.Fatalf("budgeted build: err = %v, want ErrBudgetExceeded", err)
	}
}
