package hypergraph

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hyperplex/internal/xrand"
)

// tiny returns the running example used across this file:
//
//	c1: {a, b, c}
//	c2: {b, c}        (contained in c1 → non-maximal)
//	c3: {c, d}
//	c4: {e}
//	c5: {b, c}        (duplicate of c2)
//	isolated vertex z
func tiny(t *testing.T) *Hypergraph {
	t.Helper()
	b := NewBuilder()
	b.AddEdge("c1", "a", "b", "c")
	b.AddEdge("c2", "b", "c")
	b.AddEdge("c3", "c", "d")
	b.AddEdge("c4", "e")
	b.AddEdge("c5", "b", "c")
	b.AddVertex("z")
	h, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return h
}

func TestBuilderBasic(t *testing.T) {
	h := tiny(t)
	if got, want := h.NumVertices(), 6; got != want {
		t.Errorf("NumVertices = %d, want %d", got, want)
	}
	if got, want := h.NumEdges(), 5; got != want {
		t.Errorf("NumEdges = %d, want %d", got, want)
	}
	if got, want := h.NumPins(), 3+2+2+1+2; got != want {
		t.Errorf("NumPins = %d, want %d", got, want)
	}
	if err := h.CSR().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDegrees(t *testing.T) {
	h := tiny(t)
	c, _ := h.VertexID("c")
	if got, want := h.VertexDegree(c), 4; got != want {
		t.Errorf("deg(c) = %d, want %d", got, want)
	}
	z, _ := h.VertexID("z")
	if got := h.VertexDegree(z); got != 0 {
		t.Errorf("deg(z) = %d, want 0", got)
	}
	c1, _ := h.EdgeID("c1")
	if got, want := h.EdgeDegree(c1), 3; got != want {
		t.Errorf("deg(c1) = %d, want %d", got, want)
	}
	if got, want := h.MaxVertexDegree(), 4; got != want {
		t.Errorf("MaxVertexDegree = %d, want %d", got, want)
	}
	if got, want := h.MaxEdgeDegree(), 3; got != want {
		t.Errorf("MaxEdgeDegree = %d, want %d", got, want)
	}
}

func TestNames(t *testing.T) {
	h := tiny(t)
	if _, ok := h.VertexID("nope"); ok {
		t.Error("VertexID(nope) found a vertex")
	}
	a, ok := h.VertexID("a")
	if !ok || h.VertexName(a) != "a" {
		t.Errorf("VertexID/VertexName round trip failed: %d %v", a, ok)
	}
	f, ok := h.EdgeID("c3")
	if !ok || h.EdgeName(f) != "c3" {
		t.Errorf("EdgeID/EdgeName round trip failed: %d %v", f, ok)
	}
}

func TestDuplicateEdgeName(t *testing.T) {
	b := NewBuilder()
	b.AddEdge("x", "a")
	b.AddEdge("x", "b")
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a duplicate hyperedge name")
	}
}

func TestDuplicateMembersCollapsed(t *testing.T) {
	b := NewBuilder()
	b.AddEdge("e", "a", "b", "a", "b", "a")
	h := b.MustBuild()
	if got := h.EdgeDegree(0); got != 2 {
		t.Errorf("EdgeDegree = %d, want 2 (duplicates collapsed)", got)
	}
}

func TestEdgeContains(t *testing.T) {
	h := tiny(t)
	c1, _ := h.EdgeID("c1")
	for name, want := range map[string]bool{"a": true, "b": true, "c": true, "d": false, "e": false, "z": false} {
		v, _ := h.VertexID(name)
		if got := h.EdgeContains(c1, v); got != want {
			t.Errorf("EdgeContains(c1, %s) = %v, want %v", name, got, want)
		}
	}
}

func TestOverlapAndDegree2(t *testing.T) {
	h := tiny(t)
	c1, _ := h.EdgeID("c1")
	c2, _ := h.EdgeID("c2")
	c3, _ := h.EdgeID("c3")
	c4, _ := h.EdgeID("c4")
	if got := h.Overlap(c1, c2); got != 2 {
		t.Errorf("Overlap(c1,c2) = %d, want 2", got)
	}
	if got := h.Overlap(c1, c3); got != 1 {
		t.Errorf("Overlap(c1,c3) = %d, want 1", got)
	}
	if got := h.Overlap(c1, c4); got != 0 {
		t.Errorf("Overlap(c1,c4) = %d, want 0", got)
	}
	// c1 overlaps c2, c3, c5 → d2 = 3.
	if got := h.Degree2Edge(c1); got != 3 {
		t.Errorf("Degree2Edge(c1) = %d, want 3", got)
	}
	if got := h.MaxDegree2Edge(); got != 3 {
		t.Errorf("MaxDegree2Edge = %d, want 3", got)
	}
	// b shares edges with a, c (via c1/c2/c5) → d2(b) = 2.
	bID, _ := h.VertexID("b")
	if got := h.Degree2Vertex(bID); got != 2 {
		t.Errorf("Degree2Vertex(b) = %d, want 2", got)
	}
}

func TestNonMaximalEdges(t *testing.T) {
	h := tiny(t)
	nonMax := NonMaximalEdges(h)
	c1, _ := h.EdgeID("c1")
	c2, _ := h.EdgeID("c2")
	c3, _ := h.EdgeID("c3")
	c4, _ := h.EdgeID("c4")
	c5, _ := h.EdgeID("c5")
	want := map[int]bool{c1: false, c2: true, c3: false, c4: false, c5: true}
	for f, w := range want {
		if nonMax[f] != w {
			t.Errorf("NonMaximalEdges[%s] = %v, want %v", h.EdgeName(f), nonMax[f], w)
		}
	}
}

func TestNonMaximalDuplicateTieBreak(t *testing.T) {
	// Two identical edges: exactly the higher-ID copy must be marked.
	b := NewBuilder()
	b.AddEdge("e0", "a", "b")
	b.AddEdge("e1", "a", "b")
	h := b.MustBuild()
	nonMax := NonMaximalEdges(h)
	if nonMax[0] || !nonMax[1] {
		t.Errorf("duplicate tie-break: got %v, want [false true]", nonMax)
	}
}

func TestReduce(t *testing.T) {
	h := tiny(t)
	r, vMap, fMap := h.Reduce()
	if got, want := r.NumEdges(), 3; got != want { // c1, c3, c4 survive
		t.Fatalf("reduced NumEdges = %d, want %d", got, want)
	}
	if !r.IsReduced() {
		t.Error("Reduce output is not reduced")
	}
	// z (isolated) must be dropped.
	if _, ok := r.VertexID("z"); ok {
		t.Error("isolated vertex z survived Reduce")
	}
	if got, want := r.NumVertices(), 5; got != want {
		t.Errorf("reduced NumVertices = %d, want %d", got, want)
	}
	c1old, _ := h.EdgeID("c1")
	if _, ok := fMap[c1old]; !ok {
		t.Error("fMap missing surviving edge c1")
	}
	aOld, _ := h.VertexID("a")
	aNew, ok := vMap[aOld]
	if !ok || r.VertexName(aNew) != "a" {
		t.Error("vMap does not track vertex a correctly")
	}
	if err := r.CSR().Validate(); err != nil {
		t.Errorf("reduced Validate: %v", err)
	}
}

func TestSubVertices(t *testing.T) {
	h := tiny(t)
	keep := make([]bool, h.NumVertices())
	for _, name := range []string{"b", "c", "d"} {
		v, _ := h.VertexID(name)
		keep[v] = true
	}
	sub, _, fMap := h.SubVertices(keep)
	if got, want := sub.NumVertices(), 3; got != want {
		t.Fatalf("sub NumVertices = %d, want %d", got, want)
	}
	// c4 = {e} loses all members → dropped; c1 restricted to {b,c}.
	c4old, _ := h.EdgeID("c4")
	if _, ok := fMap[c4old]; ok {
		t.Error("edge c4 should have been dropped")
	}
	c1new, ok := sub.EdgeID("c1")
	if !ok {
		t.Fatal("edge c1 missing from sub-hypergraph")
	}
	if got := sub.EdgeDegree(c1new); got != 2 {
		t.Errorf("restricted deg(c1) = %d, want 2", got)
	}
	if err := sub.CSR().Validate(); err != nil {
		t.Errorf("sub Validate: %v", err)
	}
}

func TestDual(t *testing.T) {
	h := tiny(t)
	d := h.Dual()
	if got, want := d.NumVertices(), h.NumEdges(); got != want {
		t.Errorf("dual NumVertices = %d, want %d", got, want)
	}
	if got, want := d.NumEdges(), h.NumVertices(); got != want {
		t.Errorf("dual NumEdges = %d, want %d", got, want)
	}
	if got, want := d.NumPins(), h.NumPins(); got != want {
		t.Errorf("dual NumPins = %d, want %d", got, want)
	}
	// Membership flips: c ∈ c1 in h ⟺ c1 ∈ c in dual.
	c1, _ := d.VertexID("c1")
	cEdge, _ := d.EdgeID("c")
	if !d.EdgeContains(cEdge, c1) {
		t.Error("dual lost the (c, c1) incidence")
	}
	if err := d.CSR().Validate(); err != nil {
		t.Errorf("dual Validate: %v", err)
	}
}

func TestDualInvolution(t *testing.T) {
	// Dual of dual has the original incidence structure (for a
	// hypergraph without isolated vertices, which the dual drops from
	// the edge side as empty hyperedges... here all vertices of tiny
	// minus z are covered, so restrict to covered part).
	b := NewBuilder()
	b.AddEdge("c1", "a", "b", "c")
	b.AddEdge("c2", "b", "c")
	h := b.MustBuild()
	dd := h.Dual().Dual()
	if dd.NumVertices() != h.NumVertices() || dd.NumEdges() != h.NumEdges() || dd.NumPins() != h.NumPins() {
		t.Fatalf("double dual shape mismatch: %v vs %v", dd, h)
	}
	for f := 0; f < h.NumEdges(); f++ {
		name := h.EdgeName(f)
		df, ok := dd.EdgeID(name)
		if !ok {
			t.Fatalf("double dual missing edge %q", name)
		}
		if dd.EdgeDegree(df) != h.EdgeDegree(f) {
			t.Errorf("double dual deg(%q) = %d, want %d", name, dd.EdgeDegree(df), h.EdgeDegree(f))
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	h := tiny(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, h); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	assertSameHypergraph(t, h, got)
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"no colon here",
		": members without a name",
		"vertex ",
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("ReadText(%q) succeeded, want error", in)
		}
	}
}

func TestReadTextCommentsAndBlank(t *testing.T) {
	in := "# a comment\n\nc1: a b\n   \n# another\nvertex lonely\n"
	h, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if h.NumVertices() != 3 || h.NumEdges() != 1 {
		t.Errorf("got |V|=%d |F|=%d, want 3, 1", h.NumVertices(), h.NumEdges())
	}
}

// TestReadTextRowsMatchesReadText pins the streaming reader to
// ReadText: every row it hands out is the hyperedge's row in ReadText's
// hypergraph, the names are the same in the same order, and the first
// fault is the same error.
func TestReadTextRowsMatchesReadText(t *testing.T) {
	var random bytes.Buffer
	if err := WriteText(&random, randomHypergraph(7, 60, 40, 9)); err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{
		random.String(),
		"vertex z\nc1: b a b\nc2:\nvertex y\nc3: a z c\nvertex w\n",
		"",
		"c1: a b\nc1: b c\n",
		"c1: a\nno colon\n",
	} {
		want, wantErr := ReadText(strings.NewReader(in))
		var rows [][]int32
		vNames, eNames, err := ReadTextRows(strings.NewReader(in), func(row []int32) error {
			rows = append(rows, slices.Clone(row))
			return nil
		})
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%q: ReadTextRows says %v, ReadText %v", in, err, wantErr)
			}
			continue
		}
		if len(rows) != want.NumEdges() || len(eNames) != want.NumEdges() || len(vNames) != want.NumVertices() {
			t.Fatalf("%q: %d rows, %d hyperedge and %d vertex names; ReadText has |F|=%d |V|=%d",
				in, len(rows), len(eNames), len(vNames), want.NumEdges(), want.NumVertices())
		}
		for f, row := range rows {
			if !slices.Equal(row, want.Vertices(f)) || eNames[f] != want.EdgeName(f) {
				t.Errorf("%q: hyperedge %d is %s %v, ReadText's %s %v", in, f, eNames[f], row, want.EdgeName(f), want.Vertices(f))
			}
		}
		for v, name := range vNames {
			if name != want.VertexName(v) {
				t.Errorf("%q: vertex %d is %q, ReadText's %q", in, v, name, want.VertexName(v))
			}
		}
	}
}

// TestLabels pins the fallback label: a name where there is one, else
// "v" or "f" and the ID.
func TestLabels(t *testing.T) {
	named := tiny(t)
	unnamed, err := FromCSR(named.CSR(), nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < named.NumVertices(); v++ {
		if got := named.VertexLabel(v); got != named.VertexName(v) {
			t.Errorf("VertexLabel(%d) = %q, want the name %q", v, got, named.VertexName(v))
		}
		if got, want := unnamed.VertexLabel(v), fmt.Sprintf("v%d", v); got != want {
			t.Errorf("unnamed VertexLabel(%d) = %q, want %q", v, got, want)
		}
	}
	for f := 0; f < named.NumEdges(); f++ {
		if got := named.EdgeLabel(f); got != named.EdgeName(f) {
			t.Errorf("EdgeLabel(%d) = %q, want the name %q", f, got, named.EdgeName(f))
		}
		if got, want := unnamed.EdgeLabel(f), fmt.Sprintf("f%d", f); got != want {
			t.Errorf("unnamed EdgeLabel(%d) = %q, want %q", f, got, want)
		}
	}
	if got := label("", 'v', 1<<40); got != "v1099511627776" {
		t.Errorf("label of a wide ID = %q", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	h := tiny(t)
	data, err := h.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	got, err := UnmarshalJSONHypergraph(data)
	if err != nil {
		t.Fatalf("UnmarshalJSONHypergraph: %v", err)
	}
	assertSameHypergraph(t, h, got)
}

func assertSameHypergraph(t *testing.T, want, got *Hypergraph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() || got.NumPins() != want.NumPins() {
		t.Fatalf("shape mismatch: got %v, want %v", got, want)
	}
	for f := 0; f < want.NumEdges(); f++ {
		name := want.EdgeName(f)
		gf, ok := got.EdgeID(name)
		if !ok {
			t.Fatalf("edge %q missing", name)
		}
		wantMembers := make([]string, 0)
		for _, v := range want.Vertices(f) {
			wantMembers = append(wantMembers, want.VertexName(int(v)))
		}
		gotMembers := make([]string, 0)
		for _, v := range got.Vertices(gf) {
			gotMembers = append(gotMembers, got.VertexName(int(v)))
		}
		sortStrings(wantMembers)
		sortStrings(gotMembers)
		if !reflect.DeepEqual(wantMembers, gotMembers) {
			t.Errorf("edge %q members = %v, want %v", name, gotMembers, wantMembers)
		}
	}
	if err := got.CSR().Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestClone(t *testing.T) {
	h := tiny(t)
	c := h.Clone()
	assertSameHypergraph(t, h, c)
	// Mutating the clone's internals must not affect the original.
	c.c.EAdj[0] = 99
	if h.c.EAdj[0] == 99 {
		t.Error("Clone shares EAdj storage with the original")
	}
}

func TestMapHypergraphRoundTrip(t *testing.T) {
	h := tiny(t)
	m := NewMapHypergraph(h)
	if m.NumVertices() != h.NumVertices() || m.NumEdges() != h.NumEdges() {
		t.Fatalf("MapHypergraph shape mismatch")
	}
	rebuilt, _, _ := m.Build()
	if rebuilt.NumPins() != h.NumPins() {
		t.Errorf("round-trip pins = %d, want %d", rebuilt.NumPins(), h.NumPins())
	}
	if err := rebuilt.CSR().Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestMapHypergraphDelete(t *testing.T) {
	h := tiny(t)
	m := NewMapHypergraph(h)
	c, _ := h.VertexID("c")
	m.DeleteVertex(c)
	for f := 0; f < h.NumEdges(); f++ {
		if m.EdgeContains(f, c) {
			t.Errorf("edge %d still contains deleted vertex", f)
		}
	}
	c1, _ := h.EdgeID("c1")
	if got := m.EdgeDegree(c1); got != 2 {
		t.Errorf("after DeleteVertex, deg(c1) = %d, want 2", got)
	}
	m.DeleteEdge(c1)
	a, _ := h.VertexID("a")
	if got := m.VertexDegree(a); got != 0 {
		t.Errorf("after DeleteEdge, deg(a) = %d, want 0", got)
	}
}

// randomHypergraph builds a random hypergraph for property tests.
func randomHypergraph(seed uint64, nv, ne, maxSize int) *Hypergraph {
	rng := xrand.New(seed)
	b := NewBuilder()
	for v := 0; v < nv; v++ {
		b.AddVertex(label("", 'v', v))
	}
	for f := 0; f < ne; f++ {
		size := 1 + rng.Intn(maxSize)
		members := make([]int32, 0, size)
		for i := 0; i < size; i++ {
			members = append(members, int32(rng.Intn(nv)))
		}
		b.AddEdgeIDs(label("", 'f', f), members)
	}
	return b.MustBuild()
}

func TestPropertyValidateRandom(t *testing.T) {
	prop := func(seed uint64) bool {
		h := randomHypergraph(seed, 2+int(seed%29), 1+int(seed%17), 1+int(seed%7))
		return h.CSR().Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDegreeSumsEqual(t *testing.T) {
	// Σ d(v) == Σ d(f) == |E| (handshake identity from the paper).
	prop := func(seed uint64) bool {
		h := randomHypergraph(seed, 3+int(seed%31), 1+int(seed%23), 1+int(seed%9))
		sv, sf := 0, 0
		for v := 0; v < h.NumVertices(); v++ {
			sv += h.VertexDegree(v)
		}
		for f := 0; f < h.NumEdges(); f++ {
			sf += h.EdgeDegree(f)
		}
		return sv == h.NumPins() && sf == h.NumPins()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyReduceIdempotent(t *testing.T) {
	prop := func(seed uint64) bool {
		h := randomHypergraph(seed, 3+int(seed%13), 1+int(seed%19), 1+int(seed%5))
		r1, _, _ := h.Reduce()
		if !r1.IsReduced() {
			return false
		}
		r2, _, _ := r1.Reduce()
		return r2.NumVertices() == r1.NumVertices() && r2.NumEdges() == r1.NumEdges() && r2.NumPins() == r1.NumPins()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDualPreservesPins(t *testing.T) {
	prop := func(seed uint64) bool {
		h := randomHypergraph(seed, 3+int(seed%13), 1+int(seed%19), 1+int(seed%5))
		return h.Dual().NumPins() == h.NumPins()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTextRoundTripRandom(t *testing.T) {
	prop := func(seed uint64) bool {
		h := randomHypergraph(seed, 3+int(seed%13), 1+int(seed%19), 1+int(seed%5))
		var buf bytes.Buffer
		if err := WriteText(&buf, h); err != nil {
			return false
		}
		got, err := ReadText(&buf)
		if err != nil {
			return false
		}
		return got.NumVertices() == h.NumVertices() && got.NumEdges() == h.NumEdges() && got.NumPins() == h.NumPins()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyOverlapSymmetric(t *testing.T) {
	prop := func(seed uint64) bool {
		h := randomHypergraph(seed, 3+int(seed%13), 2+int(seed%19), 1+int(seed%5))
		rng := xrand.New(seed ^ 0xabcdef)
		for i := 0; i < 10; i++ {
			f := rng.Intn(h.NumEdges())
			g := rng.Intn(h.NumEdges())
			if h.Overlap(f, g) != h.Overlap(g, f) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSortedEdgeIDsByDegree(t *testing.T) {
	h := tiny(t)
	ids := h.SortedEdgeIDsByDegree()
	for i := 1; i < len(ids); i++ {
		if h.EdgeDegree(ids[i-1]) > h.EdgeDegree(ids[i]) {
			t.Fatalf("ids not sorted by degree: %v", ids)
		}
	}
}

func TestFromEdgeSets(t *testing.T) {
	h, err := FromEdgeSets(4, [][]int32{{0, 1}, {1, 2, 3}})
	if err != nil {
		t.Fatalf("FromEdgeSets: %v", err)
	}
	if h.NumVertices() != 4 || h.NumEdges() != 2 || h.NumPins() != 5 {
		t.Errorf("unexpected shape: %v", h)
	}
	if _, err := FromEdgeSets(2, [][]int32{{0, 5}}); err == nil {
		t.Error("FromEdgeSets accepted out-of-range member")
	}
}
