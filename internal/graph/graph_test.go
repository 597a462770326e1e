package graph

import (
	"testing"
	"testing/quick"

	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

// path5 is 0-1-2-3-4.
func path5(t *testing.T) *Graph {
	t.Helper()
	return MustBuild(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
}

func TestBuildDedup(t *testing.T) {
	g := MustBuild(3, [][2]int32{{0, 1}, {1, 0}, {0, 1}, {2, 2}})
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1 (dedup + self-loop removal)", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Errorf("Degree(2) = %d, want 0", g.Degree(2))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Error("HasEdge incorrect")
	}
}

func TestBuildOutOfRange(t *testing.T) {
	if _, err := Build(2, [][2]int32{{0, 2}}); err == nil {
		t.Error("Build accepted out-of-range endpoint")
	}
	if _, err := Build(2, [][2]int32{{-1, 0}}); err == nil {
		t.Error("Build accepted negative endpoint")
	}
}

func TestBFS(t *testing.T) {
	g := path5(t)
	dist := g.BFS(0, nil)
	want := []int32{0, 1, 2, 3, 4}
	for v, w := range want {
		if dist[v] != w {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], w)
		}
	}
	// Disconnected vertex.
	g2 := MustBuild(3, [][2]int32{{0, 1}})
	d2 := g2.BFS(0, nil)
	if d2[2] != -1 {
		t.Errorf("dist to disconnected vertex = %d, want -1", d2[2])
	}
}

func TestBFSReuseBuffer(t *testing.T) {
	g := path5(t)
	buf := make([]int32, 0, 16)
	d := g.BFS(4, buf)
	if d[0] != 4 {
		t.Errorf("dist[0] = %d, want 4", d[0])
	}
}

func TestComponents(t *testing.T) {
	g := MustBuild(6, [][2]int32{{0, 1}, {1, 2}, {3, 4}})
	comp, n := g.Components()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("vertices 0,1,2 should share a component")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Error("vertices 3,4 should form their own component")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Error("vertex 5 should be isolated")
	}
}

func TestSubgraph(t *testing.T) {
	g := MustBuild(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}})
	keep := []bool{true, true, true, false, false}
	sub, vMap := g.Subgraph(keep)
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Errorf("subgraph |V|=%d |E|=%d, want 3, 2", sub.NumVertices(), sub.NumEdges())
	}
	if !sub.HasEdge(vMap[0], vMap[1]) || !sub.HasEdge(vMap[1], vMap[2]) {
		t.Error("subgraph lost kept edges")
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Triangle: every vertex has C = 1.
	tri := MustBuild(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	if c := tri.ClusteringCoefficient(); c != 1 {
		t.Errorf("triangle clustering = %v, want 1", c)
	}
	// Path: middle vertices have C = 0, endpoints excluded.
	if c := path5(t).ClusteringCoefficient(); c != 0 {
		t.Errorf("path clustering = %v, want 0", c)
	}
}

func buildTinyHypergraph(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder()
	b.AddEdge("c1", "a", "b", "c")
	b.AddEdge("c2", "c", "d")
	b.AddEdge("c3", "e")
	return b.MustBuild()
}

func TestCliqueExpansion(t *testing.T) {
	h := buildTinyHypergraph(t)
	g := CliqueExpansion(h)
	// c1 contributes C(3,2)=3 edges, c2 contributes 1, c3 none.
	if g.NumEdges() != 4 {
		t.Errorf("clique expansion edges = %d, want 4", g.NumEdges())
	}
	a, _ := h.VertexID("a")
	b, _ := h.VertexID("b")
	d, _ := h.VertexID("d")
	if !g.HasEdge(a, b) {
		t.Error("clique expansion missing intra-complex edge a-b")
	}
	if g.HasEdge(a, d) {
		t.Error("clique expansion has spurious edge a-d")
	}
}

func TestStarExpansion(t *testing.T) {
	h := buildTinyHypergraph(t)
	c, _ := h.VertexID("c") // degree 2, the max in both c1 and c2
	g := StarExpansion(h, nil)
	// c is the default bait of c1 and c2: edges c-a, c-b, c-d.
	if g.NumEdges() != 3 {
		t.Errorf("star expansion edges = %d, want 3", g.NumEdges())
	}
	a, _ := h.VertexID("a")
	b, _ := h.VertexID("b")
	if !g.HasEdge(c, a) || !g.HasEdge(c, b) || g.HasEdge(a, b) {
		t.Error("star expansion structure wrong")
	}
	// Explicit baits.
	baits := []int{a, -1, -1}
	g2 := StarExpansion(h, baits)
	if !g2.HasEdge(a, b) || !g2.HasEdge(a, c) {
		t.Error("explicit bait not honored")
	}
}

func TestIntersectionGraph(t *testing.T) {
	h := buildTinyHypergraph(t)
	g, edges, weights := IntersectionGraph(h)
	if g.NumVertices() != 3 {
		t.Fatalf("intersection graph |V| = %d, want 3", g.NumVertices())
	}
	// Only c1 and c2 share a protein (c).
	if g.NumEdges() != 1 || len(edges) != 1 || weights[0] != 1 {
		t.Errorf("intersection graph edges = %d (%v, w=%v), want one edge of weight 1", g.NumEdges(), edges, weights)
	}
	c1, _ := h.EdgeID("c1")
	c2, _ := h.EdgeID("c2")
	if !g.HasEdge(c1, c2) {
		t.Error("intersection edge c1-c2 missing")
	}
}

func TestIntersectionGraphWeights(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddEdge("f", "a", "b", "c")
	b.AddEdge("g", "b", "c", "d")
	h := b.MustBuild()
	_, edges, weights := IntersectionGraph(h)
	if len(edges) != 1 || weights[0] != 2 {
		t.Errorf("weights = %v, want [2]", weights)
	}
}

func TestBipartite(t *testing.T) {
	h := buildTinyHypergraph(t)
	g := Bipartite(h)
	if g.NumVertices() != h.NumVertices()+h.NumEdges() {
		t.Fatalf("bipartite |V| = %d", g.NumVertices())
	}
	if g.NumEdges() != h.NumPins() {
		t.Errorf("bipartite |E| = %d, want %d pins", g.NumEdges(), h.NumPins())
	}
	// a-c1 incidence becomes an edge; a has no direct protein edges.
	a, _ := h.VertexID("a")
	c1, _ := h.EdgeID("c1")
	if !g.HasEdge(a, h.NumVertices()+c1) {
		t.Error("bipartite missing pin edge")
	}
	// Distance a..d: a -c1- c -c2- d = 4 bipartite hops (2 hyperedges).
	d, _ := h.VertexID("d")
	dist := g.BFS(a, nil)
	if dist[d] != 4 {
		t.Errorf("bipartite dist(a,d) = %d, want 4", dist[d])
	}
}

func TestPropertyDegreeSumTwiceEdges(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(40)
		ne := rng.Intn(3 * n)
		edges := make([][2]int32, ne)
		for i := range edges {
			edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		}
		g := MustBuild(n, edges)
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBFSTriangleInequality(t *testing.T) {
	// dist(src, v) <= dist(src, u) + 1 for every edge (u, v).
	prop := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(30)
		ne := rng.Intn(2 * n)
		edges := make([][2]int32, ne)
		for i := range edges {
			edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		}
		g := MustBuild(n, edges)
		dist := g.BFS(0, nil)
		for u := 0; u < n; u++ {
			if dist[u] < 0 {
				continue
			}
			for _, v := range g.Neighbors(u) {
				if dist[v] < 0 || dist[v] > dist[u]+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCliqueExpansionUpperBound(t *testing.T) {
	// Clique expansion never exceeds Σ d(f)(d(f)-1)/2 edges.
	prop := func(seed uint64) bool {
		rng := xrand.New(seed)
		nv := 3 + rng.Intn(20)
		b := hypergraph.NewBuilder()
		for v := 0; v < nv; v++ {
			b.AddVertex(string(rune('A' + v)))
		}
		ne := 1 + rng.Intn(8)
		for f := 0; f < ne; f++ {
			sz := 1 + rng.Intn(5)
			members := make([]int32, sz)
			for i := range members {
				members[i] = int32(rng.Intn(nv))
			}
			b.AddEdgeIDs("", members)
		}
		h := b.MustBuild()
		bound := 0
		for f := 0; f < h.NumEdges(); f++ {
			d := h.EdgeDegree(f)
			bound += d * (d - 1) / 2
		}
		return CliqueExpansion(h).NumEdges() <= bound
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
