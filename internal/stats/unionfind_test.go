package stats

import (
	"slices"
	"testing"
	"testing/quick"

	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

func TestComponentsUFBasic(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddEdge("f1", "a", "b")
	b.AddEdge("f2", "b", "c")
	b.AddEdge("g1", "x", "y")
	b.AddVertex("lonely")
	h := b.MustBuild()
	vComp, eComp, comps := ComponentsUF(h)
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if comps[0].Vertices != 3 || comps[0].Edges != 2 {
		t.Errorf("largest = %+v", comps[0])
	}
	a, _ := h.VertexID("a")
	c, _ := h.VertexID("c")
	x, _ := h.VertexID("x")
	if vComp[a] != vComp[c] || vComp[a] == vComp[x] {
		t.Error("labels wrong")
	}
	f1, _ := h.EdgeID("f1")
	if eComp[f1] != vComp[a] {
		t.Error("edge label disagrees")
	}
}

func TestPropertyComponentsUFMatchesBFS(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := xrand.New(seed)
		nv := 2 + rng.Intn(25)
		ne := rng.Intn(20)
		edges := make([][]int32, ne)
		for f := range edges {
			size := rng.Intn(4)
			for i := 0; i < size; i++ {
				edges[f] = append(edges[f], int32(rng.Intn(nv)))
			}
		}
		h, err := hypergraph.FromEdgeSets(nv, edges)
		if err != nil {
			return false
		}
		v1, e1, c1 := Components(h)
		v2, e2, c2 := ComponentsUF(h)
		return slices.Equal(v1, v2) && slices.Equal(e1, e2) && slices.Equal(c1, c2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
