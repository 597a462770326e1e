package core

import (
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"hyperplex/internal/graph"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

// fig2Graph reconstructs the structure of the paper's Figure 2: a graph
// whose maximum core is a 3-core, whose 2-core equals the 3-core, and
// whose 4-core is empty.  We use K4 (the 3-core) with a pendant path
// attached: peeling the path leaves K4; the minimum degree inside K4 is
// 3, and no 4-core exists.
func fig2Graph() *graph.Graph {
	return graph.MustBuild(7, [][2]int32{
		// K4 on {0,1,2,3}
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		// pendant path 3-4-5 and a leaf 6 off vertex 0
		{3, 4}, {4, 5}, {0, 6},
	})
}

func TestGraphCorenessFig2(t *testing.T) {
	g := fig2Graph()
	core := GraphCoreness(g)
	want := []int{3, 3, 3, 3, 1, 1, 1}
	for v, w := range want {
		if core[v] != w {
			t.Errorf("coreness[%d] = %d, want %d", v, core[v], w)
		}
	}
	k, in := GraphMaxCore(g)
	if k != 3 {
		t.Fatalf("max core k = %d, want 3", k)
	}
	count := 0
	for _, b := range in {
		if b {
			count++
		}
	}
	if count != 4 {
		t.Errorf("max core size = %d, want 4", count)
	}
	// Figure 2's stated facts: 1-core = whole graph, 2-core = 3-core,
	// 4-core = empty.
	in1 := GraphKCore(g, 1)
	for v, b := range in1 {
		if !b {
			t.Errorf("1-core excludes vertex %d", v)
		}
	}
	in2 := GraphKCore(g, 2)
	in3 := GraphKCore(g, 3)
	for v := range in2 {
		if in2[v] != in3[v] {
			t.Errorf("2-core and 3-core differ at vertex %d", v)
		}
	}
	for v, b := range GraphKCore(g, 4) {
		if b {
			t.Errorf("4-core contains vertex %d", v)
		}
	}
}

func TestGraphCorenessEmptyAndEdgeless(t *testing.T) {
	g := graph.MustBuild(0, nil)
	if k, _ := GraphMaxCore(g); k != 0 {
		t.Errorf("empty graph max core = %d, want 0", k)
	}
	g2 := graph.MustBuild(3, nil)
	core := GraphCoreness(g2)
	for v, c := range core {
		if c != 0 {
			t.Errorf("edgeless coreness[%d] = %d, want 0", v, c)
		}
	}
}

func TestGraphCorenessClique(t *testing.T) {
	// K5: every vertex has coreness 4.
	var edges [][2]int32
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, [2]int32{i, j})
		}
	}
	g := graph.MustBuild(5, edges)
	for v, c := range GraphCoreness(g) {
		if c != 4 {
			t.Errorf("K5 coreness[%d] = %d, want 4", v, c)
		}
	}
}

// corenessNaiveGraph checks coreness by definition: v has coreness ≥ k
// iff v survives repeated removal of vertices with degree < k.
func corenessNaiveGraph(g *graph.Graph) []int {
	n := g.NumVertices()
	core := make([]int, n)
	for k := 1; ; k++ {
		alive := make([]bool, n)
		for v := range alive {
			alive[v] = true
		}
		for changed := true; changed; {
			changed = false
			for v := 0; v < n; v++ {
				if !alive[v] {
					continue
				}
				d := 0
				for _, u := range g.Neighbors(v) {
					if alive[u] {
						d++
					}
				}
				if d < k {
					alive[v] = false
					changed = true
				}
			}
		}
		any := false
		for v := 0; v < n; v++ {
			if alive[v] {
				core[v] = k
				any = true
			}
		}
		if !any {
			return core
		}
	}
}

func TestPropertyGraphCorenessMatchesNaive(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(25)
		ne := rng.Intn(3 * n)
		edges := make([][2]int32, ne)
		for i := range edges {
			edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		}
		g := graph.MustBuild(n, edges)
		fast := GraphCoreness(g)
		slow := corenessNaiveGraph(g)
		for v := range fast {
			if fast[v] != slow[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// plantedHypergraph builds a hypergraph with a known 3-core: 4 core
// vertices each in 3 core hyperedges (pairwise distinct sets), plus
// pendant vertices and a contained hyperedge.
func plantedHypergraph(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder()
	// Core hyperedges over {a,b,c,d}: each vertex in exactly 3.
	b.AddEdge("e1", "a", "b", "c")
	b.AddEdge("e2", "a", "b", "d")
	b.AddEdge("e3", "a", "c", "d")
	b.AddEdge("e4", "b", "c", "d")
	// Pendant structure.
	b.AddEdge("p1", "a", "x")
	b.AddEdge("p2", "x", "y")
	// Non-maximal edge (contained in e1).
	b.AddEdge("sub", "b", "c")
	return b.MustBuild()
}

func TestHypergraphKCorePlanted(t *testing.T) {
	h := plantedHypergraph(t)
	r := KCore(h, 3)
	if r.NumVertices != 4 || r.NumEdges != 4 {
		t.Fatalf("3-core = %d vertices / %d edges, want 4 / 4", r.NumVertices, r.NumEdges)
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		v, _ := h.VertexID(name)
		if !r.VertexIn[v] {
			t.Errorf("3-core missing vertex %s", name)
		}
	}
	sub, _ := h.EdgeID("sub")
	if r.EdgeIn[sub] {
		t.Error("non-maximal edge survived in the 3-core")
	}
	// Max core.
	mc := MaxCore(h)
	if mc.K != 3 {
		t.Errorf("max core k = %d, want 3", mc.K)
	}
	// 4-core empty.
	r4 := KCore(h, 4)
	if r4.NumVertices != 0 || r4.NumEdges != 0 {
		t.Errorf("4-core = %d/%d, want empty", r4.NumVertices, r4.NumEdges)
	}
}

func TestHypergraphKCoreInitialReduction(t *testing.T) {
	// The k-core of a hypergraph must be reduced even for k = 0/1:
	// duplicate and contained hyperedges do not contribute to degree.
	b := hypergraph.NewBuilder()
	b.AddEdge("big", "a", "b", "c")
	b.AddEdge("dup1", "a", "b")
	b.AddEdge("dup2", "a", "b")
	h := b.MustBuild()
	r := KCore(h, 1)
	// dup1/dup2 ⊆ big: both die, so every vertex has degree 1.
	if r.NumEdges != 1 {
		t.Fatalf("1-core edges = %d, want 1", r.NumEdges)
	}
	big, _ := h.EdgeID("big")
	if !r.EdgeIn[big] {
		t.Error("maximal edge 'big' missing")
	}
	// 2-core must be empty (after reduction all degrees are 1).
	r2 := KCore(h, 2)
	if r2.NumVertices != 0 {
		t.Errorf("2-core vertices = %d, want 0", r2.NumVertices)
	}
}

func TestHypergraphKCoreDuplicateOnly(t *testing.T) {
	// Two identical edges and nothing else: exactly one survives the
	// reduction (the lower ID).
	b := hypergraph.NewBuilder()
	b.AddEdge("e0", "a", "b")
	b.AddEdge("e1", "a", "b")
	h := b.MustBuild()
	r := KCore(h, 1)
	if r.NumEdges != 1 {
		t.Fatalf("edges = %d, want 1", r.NumEdges)
	}
	if !r.EdgeIn[0] || r.EdgeIn[1] {
		t.Errorf("tie-break kept wrong copy: %v", r.EdgeIn)
	}
}

func TestHypergraphKCoreCascade(t *testing.T) {
	// Deleting a vertex shrinks an edge into another, whose deletion
	// drops a vertex below k, cascading.
	//   e1 = {a, b, z}, e2 = {a, b}, e3 = {a, c}, e4 = {b, c}
	// z has degree 1.  At k = 2: z dies → e1 = {a,b} equals e2 →
	// tie-break deletes e2 (higher ID? e1 < e2 so e2 dies... e1 shrank,
	// e1 vs e2 have equal sets, lower ID e1 survives).  Then degrees:
	// a ∈ {e1, e3}, b ∈ {e1, e4}, c ∈ {e3, e4} — all 2, stable.
	b := hypergraph.NewBuilder()
	b.AddEdge("e1", "a", "b", "z")
	b.AddEdge("e2", "a", "b")
	b.AddEdge("e3", "a", "c")
	b.AddEdge("e4", "b", "c")
	h := b.MustBuild()
	r := KCore(h, 2)
	if r.NumVertices != 3 || r.NumEdges != 3 {
		t.Fatalf("2-core = %d/%d, want 3 vertices / 3 edges", r.NumVertices, r.NumEdges)
	}
	e1, _ := h.EdgeID("e1")
	e2, _ := h.EdgeID("e2")
	if !r.EdgeIn[e1] || r.EdgeIn[e2] {
		t.Errorf("equal-set tie-break after shrink failed: e1=%v e2=%v", r.EdgeIn[e1], r.EdgeIn[e2])
	}
}

func TestDecomposeCoreness(t *testing.T) {
	h := plantedHypergraph(t)
	d := Decompose(h)
	if d.MaxK != 3 {
		t.Fatalf("MaxK = %d, want 3", d.MaxK)
	}
	wantV := map[string]int{"a": 3, "b": 3, "c": 3, "d": 3, "x": 1, "y": 1}
	for name, w := range wantV {
		v, _ := h.VertexID(name)
		if d.VertexCoreness[v] != w {
			t.Errorf("coreness(%s) = %d, want %d", name, d.VertexCoreness[v], w)
		}
	}
	sub, _ := h.EdgeID("sub")
	if d.EdgeCoreness[sub] != 0 {
		t.Errorf("coreness(sub) = %d, want 0 (killed in reduction)", d.EdgeCoreness[sub])
	}
	e1, _ := h.EdgeID("e1")
	if d.EdgeCoreness[e1] != 3 {
		t.Errorf("coreness(e1) = %d, want 3", d.EdgeCoreness[e1])
	}
}

func TestResultSub(t *testing.T) {
	h := plantedHypergraph(t)
	r := KCore(h, 3)
	sub, _, _ := r.Sub(h)
	if sub.NumVertices() != 4 || sub.NumEdges() != 4 {
		t.Errorf("materialized core = %v", sub)
	}
	if err := sub.CSR().Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if !sub.IsReduced() {
		t.Error("materialized core is not reduced")
	}
}

func randomHypergraph(seed uint64) *hypergraph.Hypergraph {
	rng := xrand.New(seed)
	nv := 3 + rng.Intn(20)
	ne := 1 + rng.Intn(25)
	edges := make([][]int32, ne)
	for f := range edges {
		size := 1 + rng.Intn(5)
		for i := 0; i < size; i++ {
			edges[f] = append(edges[f], int32(rng.Intn(nv)))
		}
	}
	h, err := hypergraph.FromEdgeSets(nv, edges)
	if err != nil {
		panic(err)
	}
	return h
}

// sameResult compares two cores as set systems: identical vertex
// membership and identical multisets of restricted hyperedge member
// sets.  Edge IDs may legitimately differ between algorithms when two
// hyperedges shrink to the same set during peeling — which duplicate
// survives depends on deletion order, but the canonical structure is
// unique.
func sameResult(h *hypergraph.Hypergraph, a, b *Result) bool {
	if a.NumVertices != b.NumVertices || a.NumEdges != b.NumEdges {
		return false
	}
	for v := range a.VertexIn {
		if a.VertexIn[v] != b.VertexIn[v] {
			return false
		}
	}
	return canonicalEdges(h, a) == canonicalEdges(h, b)
}

// canonicalEdges renders the surviving hyperedges (restricted to
// surviving vertices) as a sorted textual multiset.
func canonicalEdges(h *hypergraph.Hypergraph, r *Result) string {
	var sets []string
	for f := range r.EdgeIn {
		if !r.EdgeIn[f] {
			continue
		}
		s := ""
		for _, v := range h.Vertices(f) {
			if r.VertexIn[v] {
				s += " " + itoa(int(v))
			}
		}
		sets = append(sets, s)
	}
	sort.Strings(sets)
	return strings.Join(sets, "|")
}

func itoa(i int) string { return strconv.Itoa(i) }

func TestPropertyCoresNested(t *testing.T) {
	// The (k+1)-core is contained in the k-core.
	prop := func(seed uint64) bool {
		h := randomHypergraph(seed)
		prev := KCore(h, 1)
		for k := 2; k <= 4; k++ {
			cur := KCore(h, k)
			for v := range cur.VertexIn {
				if cur.VertexIn[v] && !prev.VertexIn[v] {
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDecomposeConsistentWithKCore(t *testing.T) {
	// The k-core extracted from the decomposition must equal the
	// directly computed k-core.
	prop := func(seed uint64) bool {
		h := randomHypergraph(seed)
		d := Decompose(h)
		for k := 1; k <= d.MaxK+1; k++ {
			if !sameResult(h, d.Core(k), KCore(h, k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCoreIsValid(t *testing.T) {
	// Every vertex in the k-core has degree ≥ k inside it, and the core
	// is reduced.
	prop := func(seed uint64, kRaw uint8) bool {
		h := randomHypergraph(seed)
		k := 1 + int(kRaw%4)
		r := KCore(h, k)
		if r.NumVertices == 0 {
			return r.NumEdges == 0
		}
		sub, _, _ := r.Sub(h)
		if !sub.IsReduced() {
			return false
		}
		for v := 0; v < sub.NumVertices(); v++ {
			if sub.VertexDegree(v) < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestKCoreZero(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddEdge("e", "a", "b")
	b.AddVertex("iso")
	h := b.MustBuild()
	r := KCore(h, 0)
	iso, _ := h.VertexID("iso")
	if r.VertexIn[iso] {
		t.Error("0-core kept an isolated vertex")
	}
	if r.NumVertices != 2 || r.NumEdges != 1 {
		t.Errorf("0-core = %d/%d, want 2/1", r.NumVertices, r.NumEdges)
	}
}

func TestMaxCoreEmptyish(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddVertex("lonely")
	h := b.MustBuild()
	mc := MaxCore(h)
	if mc.K != 0 || mc.NumVertices != 0 {
		t.Errorf("MaxCore of edgeless hypergraph = k%d %d vertices, want 0/0", mc.K, mc.NumVertices)
	}
}
