package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"hyperplex/internal/hypergraph"
)

func TestBiCoreEqualsKCoreAtL1(t *testing.T) {
	prop := func(seed uint64, kRaw uint8) bool {
		h := randomHypergraph(seed)
		k := 1 + int(kRaw%4)
		return sameResult(h, KCore(h, k), BiCore(h, k, 1))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestBiCoreFiltersSmallEdges(t *testing.T) {
	// Two big overlapping complexes plus pair-complexes: at l = 3 the
	// pairs die immediately.
	b := hypergraph.NewBuilder()
	b.AddEdge("big1", "a", "b", "c", "d")
	b.AddEdge("big2", "a", "b", "c", "e")
	b.AddEdge("big3", "a", "b", "d", "e")
	b.AddEdge("pair1", "a", "x")
	b.AddEdge("pair2", "x", "y")
	h := b.MustBuild()

	r := BiCore(h, 2, 3)
	p1, _ := h.EdgeID("pair1")
	p2, _ := h.EdgeID("pair2")
	if r.EdgeIn[p1] || r.EdgeIn[p2] {
		t.Error("pair complexes survived l = 3")
	}
	xv, _ := h.VertexID("x")
	if r.VertexIn[xv] {
		t.Error("pendant vertex survived")
	}
	// a and b are in all three big complexes; c, d, e in two each.
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		v, _ := h.VertexID(name)
		if !r.VertexIn[v] {
			t.Errorf("vertex %s missing from the (2,3)-core", name)
		}
	}
}

func TestBiCoreCascadeThroughL(t *testing.T) {
	// Peeling a vertex can shrink a hyperedge below l, whose removal
	// drops other vertices below k.
	b := hypergraph.NewBuilder()
	b.AddEdge("e1", "a", "b", "z") // z has degree 1: dies at k=2
	b.AddEdge("e2", "a", "b", "c")
	b.AddEdge("e3", "a", "c", "d")
	b.AddEdge("e4", "b", "c", "d")
	h := b.MustBuild()
	// At (k=2, l=3): z dies → e1 shrinks to 2 < 3 → e1 dies → a, b drop
	// to 2 (still fine); result should be {a,b,c,d} with e2,e3,e4.
	r := BiCore(h, 2, 3)
	if r.NumVertices != 4 || r.NumEdges != 3 {
		t.Fatalf("(2,3)-core = %d/%d, want 4/3", r.NumVertices, r.NumEdges)
	}
	e1, _ := h.EdgeID("e1")
	if r.EdgeIn[e1] {
		t.Error("e1 should have died at l = 3")
	}
}

// TestBiCoreDecomposeL peels the whole (k, l) decomposition at a
// fixed l and reads the maximum k and its core off it.
func TestBiCoreDecomposeL(t *testing.T) {
	h := plantedHypergraph(t)
	d, err := decompose(context.Background(), h, 1, 3, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxK != 3 {
		t.Errorf("max k at l=3 is %d, want 3 (core edges all have 3 members)", d.MaxK)
	}
	if r := d.Core(d.MaxK); r.NumVertices != 4 || r.NumEdges != 4 {
		t.Errorf("core = %d/%d, want 4/4", r.NumVertices, r.NumEdges)
	}
	// At l = 4 nothing survives (all planted edges have 3 members).
	d4, err := decompose(context.Background(), h, 1, 4, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if r4 := d4.Core(d4.MaxK); d4.MaxK != 0 || r4.NumVertices != 0 {
		t.Errorf("l=4: k=%d, %d vertices; want empty", d4.MaxK, r4.NumVertices)
	}
}

func TestBiCoreZeroK(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddEdge("big", "a", "b", "c")
	b.AddEdge("pair", "x", "y")
	h := b.MustBuild()
	r := BiCore(h, 0, 3)
	pair, _ := h.EdgeID("pair")
	if r.EdgeIn[pair] {
		t.Error("pair survived l=3 at k=0")
	}
	big, _ := h.EdgeID("big")
	if !r.EdgeIn[big] {
		t.Error("big edge missing at k=0")
	}
}
