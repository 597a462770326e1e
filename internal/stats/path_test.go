package stats

import (
	"strings"
	"testing"

	"hyperplex/internal/hypergraph"
)

func TestShortestPathChain(t *testing.T) {
	h := chainH(4) // v0 -f0- v1 -f1- v2 -f2- v3 -f3- v4
	v0, _ := h.VertexID("v0")
	v3, _ := h.VertexID("v3")
	p, ok := ShortestPath(h, v0, v3)
	if !ok {
		t.Fatal("path not found")
	}
	if p.Len() != 3 {
		t.Fatalf("path length = %d, want 3", p.Len())
	}
	if len(p.Vertices) != 4 {
		t.Fatalf("path vertices = %d, want 4", len(p.Vertices))
	}
	if p.Vertices[0] != v0 || p.Vertices[len(p.Vertices)-1] != v3 {
		t.Error("endpoints wrong")
	}
	// Consecutive vertices must share the listed hyperedge.
	for i, f := range p.Edges {
		if !h.EdgeContains(f, p.Vertices[i]) || !h.EdgeContains(f, p.Vertices[i+1]) {
			t.Errorf("hyperedge %d does not join step %d", f, i)
		}
	}
	s := p.Format(h)
	if !strings.Contains(s, "v0") || !strings.Contains(s, "-[") {
		t.Errorf("Format = %q", s)
	}
}

func TestShortestPathSelf(t *testing.T) {
	h := chainH(2)
	p, ok := ShortestPath(h, 0, 0)
	if !ok || p.Len() != 0 || len(p.Vertices) != 1 {
		t.Errorf("self path = %+v, %v", p, ok)
	}
}

func TestShortestPathDisconnected(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddEdge("f1", "a", "b")
	b.AddEdge("f2", "x", "y")
	h := b.MustBuild()
	a, _ := h.VertexID("a")
	x, _ := h.VertexID("x")
	if _, ok := ShortestPath(h, a, x); ok {
		t.Error("found a path across components")
	}
}
