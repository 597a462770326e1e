package hypergraph

import (
	"strings"
	"testing"
)

func TestBuilderCounters(t *testing.T) {
	b := NewBuilder()
	if b.NumVertices() != 0 || b.NumEdges() != 0 {
		t.Error("fresh builder not empty")
	}
	b.AddEdge("e", "a", "b")
	if b.NumVertices() != 2 || b.NumEdges() != 1 {
		t.Errorf("counters = %d/%d", b.NumVertices(), b.NumEdges())
	}
}

func TestMustBuildPanics(t *testing.T) {
	b := NewBuilder()
	b.AddEdge("dup", "a")
	b.AddEdge("dup", "b")
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on duplicate names")
		}
	}()
	b.MustBuild()
}

func TestDegreeSlices(t *testing.T) {
	h := tiny(t)
	vd := h.VertexDegrees()
	if len(vd) != h.NumVertices() {
		t.Fatalf("VertexDegrees len = %d", len(vd))
	}
	sum := 0
	for _, d := range vd {
		sum += d
	}
	if sum != h.NumPins() {
		t.Errorf("Σ vertex degrees = %d, want %d", sum, h.NumPins())
	}
	ed := h.EdgeDegrees()
	sum2 := 0
	for _, d := range ed {
		sum2 += d
	}
	if sum2 != h.NumPins() {
		t.Errorf("Σ edge degrees = %d, want %d", sum2, h.NumPins())
	}
}

func TestStringer(t *testing.T) {
	h := tiny(t)
	s := h.String()
	if !strings.Contains(s, "|V|=6") || !strings.Contains(s, "|F|=5") {
		t.Errorf("String() = %q", s)
	}
}

// TestUnnamedFallbacks pins a hypergraph built from IDs: it holds no
// names, its labels stand in for them, and the lookups find exactly
// those labels.
func TestUnnamedFallbacks(t *testing.T) {
	h, err := FromEdgeSets(12, [][]int32{{0, 11}})
	if err != nil {
		t.Fatal(err)
	}
	if h.vNames != nil || h.eNames != nil || h.VertexName(0) != "" || h.EdgeName(0) != "" {
		t.Errorf("FromEdgeSets built names %q/%q", h.VertexName(0), h.EdgeName(0))
	}
	if h.VertexLabel(11) != "v11" || h.EdgeLabel(0) != "f0" {
		t.Errorf("labels = %q/%q, want v11/f0", h.VertexLabel(11), h.EdgeLabel(0))
	}
	if v, ok := h.VertexID("v11"); !ok || v != 11 {
		t.Errorf("VertexID(v11) = %d, %v, want 11", v, ok)
	}
	if f, ok := h.EdgeID("f0"); !ok || f != 0 {
		t.Errorf("EdgeID(f0) = %d, %v, want 0", f, ok)
	}
	for _, miss := range []string{"", "v", "v12", "v011", "v00", "v+1", "v-1", "v1x", "V1", "f0", "v99999999999999999999999"} {
		if v, ok := h.VertexID(miss); ok {
			t.Errorf("VertexID(%q) found %d", miss, v)
		}
	}
	for _, miss := range []string{"", "f", "f1", "f00", "v0"} {
		if f, ok := h.EdgeID(miss); ok {
			t.Errorf("EdgeID(%q) found %d", miss, f)
		}
	}
}

func TestUnmarshalJSONWithoutOrder(t *testing.T) {
	// Legacy files lacking edgeOrder: edges sorted by name.
	in := `{"vertices":["a","b"],"edges":{"z":["a"],"m":["a","b"]}}`
	h, err := UnmarshalJSONHypergraph([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 {
		t.Fatalf("edges = %d", h.NumEdges())
	}
	if h.EdgeName(0) != "m" || h.EdgeName(1) != "z" {
		t.Errorf("order = %q, %q (want sorted)", h.EdgeName(0), h.EdgeName(1))
	}
}

func TestUnmarshalJSONBadOrder(t *testing.T) {
	in := `{"vertices":["a"],"edges":{"e":["a"]},"edgeOrder":["e","ghost"]}`
	if _, err := UnmarshalJSONHypergraph([]byte(in)); err == nil {
		t.Error("edgeOrder naming a missing edge accepted")
	}
}
