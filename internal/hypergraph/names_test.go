package hypergraph

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"strings"
	"testing"

	"hyperplex/internal/csr"
)

// TestNameHashesAgree pins the premise of one index for both key
// kinds: a name hashes the same as bytes and as a string.
func TestNameHashesAgree(t *testing.T) {
	for _, name := range []string{"", "a", "YAL001C", "x\xff", strings.Repeat("long", 40)} {
		if maphash.Bytes(nameSeed, []byte(name)) != maphash.String(nameSeed, name) {
			t.Errorf("%q hashes differently as bytes and as a string", name)
		}
	}
}

// TestNameIndexLookups builds tables far past the first index size and
// requires every name found at its ID, misses to miss, and the empty
// hyperedge name never found; on a hypergraph built from IDs the
// labels are found the same way.
func TestNameIndexLookups(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 3000; i++ {
		name := ""
		if i%7 != 0 {
			name = fmt.Sprintf("c%d", i)
		}
		b.AddEdge(name, fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", i/2))
	}
	h := b.MustBuild()
	gen, err := FromEdgeSets(5000, [][]int32{{0, 4999}, {17}})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Hypergraph{h, gen} {
		for v := 0; v < g.NumVertices(); v++ {
			if id, ok := g.VertexID(g.VertexLabel(v)); !ok || id != v {
				t.Fatalf("%v: VertexID(%q) = %d, %v, want %d", g, g.VertexLabel(v), id, ok, v)
			}
		}
		for f := 0; f < g.NumEdges(); f++ {
			if g == gen || g.EdgeName(f) != "" {
				if id, ok := g.EdgeID(g.EdgeLabel(f)); !ok || id != f {
					t.Fatalf("%v: EdgeID(%q) = %d, %v, want %d", g, g.EdgeLabel(f), id, ok, f)
				}
			}
		}
		for _, miss := range []string{"", "nope", "p", "c", "v", "f", "v5000", "f2"} {
			if id, ok := g.EdgeID(miss); ok {
				t.Errorf("%v: EdgeID(%q) found %d", g, miss, id)
			}
		}
	}
	if _, ok := h.VertexID(""); ok {
		t.Error("VertexID(\"\") found a vertex no one named")
	}
}

// TestBuilderDuplicateAfterBuild requires the first repeated hyperedge
// name to be reported, with the IDs of both copies, by every later
// Build, while an earlier Build keeps its hypergraph.
func TestBuilderDuplicateAfterBuild(t *testing.T) {
	b := NewBuilder()
	b.AddEdge("x", "a")
	b.AddEdge("", "b")
	b.AddEdge("", "c")
	h := b.MustBuild()
	b.AddEdge("x", "d")
	b.AddEdge("x", "e")
	const want = `hypergraph: duplicate hyperedge name "x" (edges 0 and 3)`
	for i := 0; i < 2; i++ {
		if _, err := b.Build(); err == nil || err.Error() != want {
			t.Fatalf("Build %d: %v, want %s", i, err, want)
		}
	}
	if f, ok := h.EdgeID("x"); !ok || f != 0 || h.NumEdges() != 3 {
		t.Errorf("first hypergraph changed: %v, EdgeID(x) = %d, %v", h, f, ok)
	}
}

// TestNameSpaceBound lowers the per-side name-byte bound and requires
// every route that writes a name table to fail with ErrNameSpace
// instead of truncating an offset.
func TestNameSpaceBound(t *testing.T) {
	defer func(old int) { maxNameBytes = old }(maxNameBytes)
	maxNameBytes = 8

	b := NewBuilder()
	if v := b.AddVertex("abcde"); v != 0 {
		t.Fatalf("AddVertex under the bound = %d", v)
	}
	if v := b.AddVertex("fghij"); v != -1 {
		t.Errorf("AddVertex past the bound = %d, want -1", v)
	}
	if _, err := b.Build(); !errors.Is(err, ErrNameSpace) {
		t.Errorf("Build past the vertex bound: %v, want ErrNameSpace", err)
	}
	b = NewBuilder()
	b.AddEdgeIDs("long hyperedge name", nil)
	if _, err := b.Build(); !errors.Is(err, ErrNameSpace) {
		t.Errorf("Build past the edge bound: %v, want ErrNameSpace", err)
	}
	if _, err := ReadText(strings.NewReader("e: abcd efghi\n")); !errors.Is(err, ErrNameSpace) {
		t.Errorf("ReadText past the bound: %v, want ErrNameSpace", err)
	}
	if _, _, err := ReadTextRows(strings.NewReader("e: abcd efghi\n"), func([]int32) error { return nil }); !errors.Is(err, ErrNameSpace) {
		t.Errorf("ReadTextRows past the bound: %v, want ErrNameSpace", err)
	}
}

// TestPinSpaceBound lowers the int32 pin bound: every route that
// assembles a CSR or streams its rows must return ErrPinSpace past it,
// and must not panic
// (narrowing the offsets would have panicked at the first engine call).
// Repeated members are collapsed before they count.
func TestPinSpaceBound(t *testing.T) {
	defer func(old int) { maxPins = old }(maxPins)
	maxPins = 3

	b := NewBuilder()
	b.AddEdge("c1", "a", "b", "a")
	if _, err := b.Build(); err != nil {
		t.Fatalf("Build within the bound: %v", err)
	}
	b.AddEdge("c2", "b", "c")
	if _, err := b.Build(); !errors.Is(err, ErrPinSpace) {
		t.Errorf("Build past the bound: %v, want ErrPinSpace", err)
	}
	if _, err := ReadTextCtx(context.Background(), strings.NewReader("c1: a b\nc2: b c\n")); !errors.Is(err, ErrPinSpace) {
		t.Errorf("ReadTextCtx past the bound: %v, want ErrPinSpace", err)
	}
	// The streaming reader drops each row but counts its pins, and
	// hands out no row past the bound.
	handed := 0
	if _, _, err := ReadTextRows(strings.NewReader("c1: a b\nc2: b c\n"), func(row []int32) error {
		handed += len(row)
		return nil
	}); !errors.Is(err, ErrPinSpace) || handed != 2 {
		t.Errorf("ReadTextRows past the bound: %v after %d pins, want ErrPinSpace after 2", err, handed)
	}
	if _, err := FromEdgeSets(3, [][]int32{{0, 1, 0}, {2}}); err != nil {
		t.Errorf("FromEdgeSets within the bound: %v", err)
	}
	if _, err := FromEdgeSets(3, [][]int32{{0, 1}, {1, 2}}); !errors.Is(err, ErrPinSpace) {
		t.Errorf("FromEdgeSets past the bound: %v, want ErrPinSpace", err)
	}
	if _, err := FromRows(3, []int32{0, 3, 4}, []int32{1, 0, 1, 2}); err != nil {
		t.Errorf("FromRows within the bound: %v", err)
	}
	if _, err := FromRows(3, []int32{0, 2, 4}, []int32{0, 1, 1, 2}); !errors.Is(err, ErrPinSpace) {
		t.Errorf("FromRows past the bound: %v, want ErrPinSpace", err)
	}
}

// TestFromCSRNames pins the checks on store-layout names: a repeated
// name on either side, offsets of the wrong length or past the blob,
// and the empty vertex name, which may repeat.
func TestFromCSRNames(t *testing.T) {
	c := &csr.CSR{VOff: []int32{0, 1, 2}, VAdj: []int32{0, 1}, EOff: []int32{0, 1, 2}, EAdj: []int32{0, 1}}
	cases := []struct {
		name                 string
		vNameOff, eNameOff   []int32
		vNameBlob, eNameBlob string
		want                 string
	}{
		{"repeated vertex name", []int32{0, 1, 2}, nil, "aa", "", `hypergraph: duplicate vertex name "a" (vertices 0 and 1)`},
		{"repeated hyperedge name", nil, []int32{0, 2, 4}, "", "c1c1", `hypergraph: duplicate hyperedge name "c1" (edges 0 and 1)`},
		{"short offsets", []int32{0, 1}, nil, "a", "", "hypergraph: 2 vertex name offsets for 2 vertices"},
		{"offsets past the blob", nil, []int32{0, 1, 3}, "", "ab", "hypergraph: hyperedge name offsets span [0,3), want the 2-byte blob"},
		{"decreasing offsets", []int32{0, 2, 1}, nil, "a", "", "hypergraph: vertex name offsets not monotone at 2"},
	}
	for _, tc := range cases {
		_, err := FromCSR(c, tc.vNameOff, []byte(tc.vNameBlob), tc.eNameOff, []byte(tc.eNameBlob))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: %v, want %s", tc.name, err, tc.want)
		}
	}
	h, err := FromCSR(c, []int32{0, 0, 0}, nil, []int32{0, 0, 0}, nil)
	if err != nil {
		t.Fatalf("empty names: %v", err)
	}
	if v, ok := h.VertexID(""); !ok || v != 1 {
		t.Errorf("VertexID(\"\") = %d, %v, want the last empty-named vertex 1", v, ok)
	}
	if _, ok := h.EdgeID(""); ok {
		t.Error("EdgeID(\"\") found an unnamed hyperedge")
	}
}
