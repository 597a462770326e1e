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

// TestMaxDegree2Edge pins Δ₂,F on the running example: c1 shares a
// vertex with c2, c3 and c5, and no hyperedge with more; and on
// hypergraphs without overlaps.
func TestMaxDegree2Edge(t *testing.T) {
	if got := tiny(t).MaxDegree2Edge(); got != 3 {
		t.Errorf("MaxDegree2Edge = %d, want 3", got)
	}
	for _, tc := range []struct {
		nv    int
		edges [][]int32
	}{{0, nil}, {3, [][]int32{{0}, {1, 2}}}} {
		h, err := FromEdgeSets(tc.nv, tc.edges)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.MaxDegree2Edge(); got != 0 {
			t.Errorf("%v: MaxDegree2Edge = %d, want 0", h, got)
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

// TestFromRowsRejectsBadRows hands FromRows offsets and members it
// must refuse, as a corrupt Load frame might carry them: each is an
// error naming the fault, never a panic, and the rows are left as
// they came.
func TestFromRowsRejectsBadRows(t *testing.T) {
	for _, tc := range []struct {
		name       string
		nv         int
		eOff, eAdj []int32
		want       string
	}{
		{"no offsets", 3, nil, nil, "hypergraph: no row offsets"},
		{"empty offsets", 3, []int32{}, []int32{0}, "hypergraph: no row offsets"},
		{"first offset not 0", 3, []int32{1, 2}, []int32{0, 1}, "hypergraph: row offsets start at 1, want 0"},
		{"negative first offset", 3, []int32{-1, 1}, []int32{0, 1}, "hypergraph: row offsets start at -1, want 0"},
		{"decreasing offsets", 3, []int32{0, 2, 1, 3}, []int32{0, 1, 2}, "hypergraph: row offsets decrease at 2"},
		{"interior offset past the pins", 3, []int32{0, 9, 3}, []int32{0, 1, 2}, "hypergraph: row offsets decrease at 2"},
		{"last offset short of the pins", 3, []int32{0, 1, 2}, []int32{0, 1, 2}, "hypergraph: row offsets end at 2, want the 3 pins"},
		{"last offset past the pins", 3, []int32{0, 4}, []int32{0, 1}, "hypergraph: row offsets end at 4, want the 2 pins"},
		{"member too large", 3, []int32{0, 2, 4}, []int32{2, 0, 1, 3}, "hypergraph: edge 1 member 3 out of range [0,3)"},
		{"negative member", 3, []int32{0, 1, 2}, []int32{0, -4}, "hypergraph: edge 1 member -4 out of range [0,3)"},
		{"member with nv 0", 0, []int32{0, 0, 1}, []int32{0}, "hypergraph: edge 1 member 0 out of range [0,0)"},
	} {
		before := slices.Clone(tc.eAdj)
		offBefore := slices.Clone(tc.eOff)
		var err error
		func() {
			defer func() {
				if x := recover(); x != nil {
					err = fmt.Errorf("panic: %v", x)
				}
			}()
			_, err = FromRows(tc.nv, tc.eOff, tc.eAdj)
		}()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %s", tc.name, err, tc.want)
		}
		if !slices.Equal(tc.eAdj, before) || !slices.Equal(tc.eOff, offBefore) {
			t.Errorf("%s: rejected rows changed to %v / %v", tc.name, tc.eOff, tc.eAdj)
		}
	}
}
