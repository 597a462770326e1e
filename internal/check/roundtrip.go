package check

import (
	"bytes"
	"fmt"
	"math"

	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/pajek"
)

// SameNamed verifies that two hypergraphs are equal up to vertex ID
// permutation under label identity (VertexLabel and EdgeLabel, the
// names the writers print): same vertex label set, same hyperedge
// sequence, and the same member label set for every hyperedge.  This is
// the equality a text-format round trip preserves, where vertex IDs are
// reassigned in order of appearance.
func SameNamed(a, b *hypergraph.Hypergraph) error {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("check: shape differs: %v vs %v", a, b)
	}
	bID := make(map[string]int, b.NumVertices())
	for v := 0; v < b.NumVertices(); v++ {
		bID[b.VertexLabel(v)] = v
	}
	for v := 0; v < a.NumVertices(); v++ {
		if _, ok := bID[a.VertexLabel(v)]; !ok {
			return fmt.Errorf("check: vertex %q missing from second hypergraph", a.VertexLabel(v))
		}
	}
	for f := 0; f < a.NumEdges(); f++ {
		if an, bn := a.EdgeLabel(f), b.EdgeLabel(f); an != bn {
			return fmt.Errorf("check: hyperedge %d named %q vs %q", f, an, bn)
		}
		am, bm := a.Vertices(f), b.Vertices(f)
		if len(am) != len(bm) {
			return fmt.Errorf("check: hyperedge %d has %d vs %d members", f, len(am), len(bm))
		}
		for _, v := range am {
			w, ok := bID[a.VertexLabel(int(v))]
			if !ok || !b.EdgeContains(f, w) {
				return fmt.Errorf("check: hyperedge %d member %q missing from second hypergraph",
					f, a.VertexLabel(int(v)))
			}
		}
	}
	return nil
}

// SameStructure verifies ID-level equality of the incidence structure,
// ignoring names: same counts and the same member-ID list for every
// hyperedge.
func SameStructure(a, b *hypergraph.Hypergraph) error {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("check: shape differs: %v vs %v", a, b)
	}
	for f := 0; f < a.NumEdges(); f++ {
		am, bm := a.Vertices(f), b.Vertices(f)
		if len(am) != len(bm) {
			return fmt.Errorf("check: hyperedge %d has %d vs %d members", f, len(am), len(bm))
		}
		for i := range am {
			if am[i] != bm[i] {
				return fmt.Errorf("check: hyperedge %d member %d: vertex %d vs %d", f, i, am[i], bm[i])
			}
		}
	}
	return nil
}

// RoundTripText verifies the text format: h survives write→read under
// name equality, the re-read hypergraph is structurally valid, and a
// second write→read→write is byte-stable (the first write
// canonicalizes vertex order).
func RoundTripText(h *hypergraph.Hypergraph) error {
	var b1 bytes.Buffer
	if err := hypergraph.WriteText(&b1, h); err != nil {
		return fmt.Errorf("check: text write: %w", err)
	}
	h2, err := hypergraph.ReadText(bytes.NewReader(b1.Bytes()))
	if err != nil {
		return fmt.Errorf("check: re-read of text output: %w", err)
	}
	if err := h2.CSR().Validate(); err != nil {
		return fmt.Errorf("check: text round trip produced invalid hypergraph: %w", err)
	}
	if err := SameNamed(h, h2); err != nil {
		return fmt.Errorf("check: text round trip: %w", err)
	}
	var b2 bytes.Buffer
	if err := hypergraph.WriteText(&b2, h2); err != nil {
		return fmt.Errorf("check: text write: %w", err)
	}
	h3, err := hypergraph.ReadText(bytes.NewReader(b2.Bytes()))
	if err != nil {
		return fmt.Errorf("check: re-read of canonical text output: %w", err)
	}
	var b3 bytes.Buffer
	if err := hypergraph.WriteText(&b3, h3); err != nil {
		return fmt.Errorf("check: text write: %w", err)
	}
	if !bytes.Equal(b2.Bytes(), b3.Bytes()) {
		return fmt.Errorf("check: text format not write-stable after one canonicalizing round trip")
	}
	return nil
}

// RoundTripJSON verifies the JSON wire form: marshal→unmarshal
// preserves h under name equality and marshaling is byte-stable.
func RoundTripJSON(h *hypergraph.Hypergraph) error {
	b1, err := h.MarshalJSON()
	if err != nil {
		return fmt.Errorf("check: json marshal: %w", err)
	}
	h2, err := hypergraph.UnmarshalJSONHypergraph(b1)
	if err != nil {
		return fmt.Errorf("check: json unmarshal of own output: %w", err)
	}
	if err := h2.CSR().Validate(); err != nil {
		return fmt.Errorf("check: json round trip produced invalid hypergraph: %w", err)
	}
	if err := SameNamed(h, h2); err != nil {
		return fmt.Errorf("check: json round trip: %w", err)
	}
	b2, err := h2.MarshalJSON()
	if err != nil {
		return fmt.Errorf("check: json marshal: %w", err)
	}
	if !bytes.Equal(b1, b2) {
		return fmt.Errorf("check: json marshaling not byte-stable across a round trip")
	}
	return nil
}

// RoundTripMatrixMarket verifies the Matrix Market path: the
// hypergraph→matrix→file→matrix→hypergraph cycle preserves the
// incidence structure exactly (names are not carried by the format).
func RoundTripMatrixMarket(h *hypergraph.Hypergraph) error {
	m1 := mmio.FromHypergraph(h)
	var buf bytes.Buffer
	if err := mmio.Write(&buf, m1); err != nil {
		return fmt.Errorf("check: mm write: %w", err)
	}
	m2, err := mmio.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("check: mm re-read of own output: %w", err)
	}
	if err := sameMatrix(m1, m2); err != nil {
		return err
	}
	h2, err := mmio.ToHypergraph(m2)
	if err != nil {
		return fmt.Errorf("check: mm to hypergraph: %w", err)
	}
	if err := h2.CSR().Validate(); err != nil {
		return fmt.Errorf("check: mm round trip produced invalid hypergraph: %w", err)
	}
	if err := SameStructure(h, h2); err != nil {
		return fmt.Errorf("check: mm round trip: %w", err)
	}
	return nil
}

func sameMatrix(a, b *mmio.Matrix) error {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() || a.Pattern != b.Pattern {
		return fmt.Errorf("check: matrix shape differs: %dx%d/%d/%t vs %dx%d/%d/%t",
			a.Rows, a.Cols, a.NNZ(), a.Pattern, b.Rows, b.Cols, b.NNZ(), b.Pattern)
	}
	for k := 0; k < a.NNZ(); k++ {
		if a.RowIdx[k] != b.RowIdx[k] || a.ColIdx[k] != b.ColIdx[k] {
			return fmt.Errorf("check: matrix entry %d differs: (%d,%d) vs (%d,%d)",
				k, a.RowIdx[k], a.ColIdx[k], b.RowIdx[k], b.ColIdx[k])
		}
		if !a.Pattern && math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return fmt.Errorf("check: matrix entry %d (%d,%d) holds %g vs %g",
				k, a.RowIdx[k], a.ColIdx[k], a.Val[k], b.Val[k])
		}
	}
	return nil
}

// RoundTripPajek verifies the Pajek .net export: reading WriteNet's
// output back reproduces every vertex and hyperedge label and exactly
// the pin set of h.
func RoundTripPajek(h *hypergraph.Hypergraph) error {
	var buf bytes.Buffer
	if err := pajek.WriteNet(&buf, h, nil, nil); err != nil {
		return fmt.Errorf("check: pajek write: %w", err)
	}
	info, err := pajek.ReadNet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("check: pajek re-read of own output: %w", err)
	}
	nv, ne := h.NumVertices(), h.NumEdges()
	if len(info.Labels) != nv+ne {
		return fmt.Errorf("check: pajek round trip kept %d labels, want %d", len(info.Labels), nv+ne)
	}
	for v := 0; v < nv; v++ {
		if info.Labels[v] != h.VertexLabel(v) {
			return fmt.Errorf("check: pajek vertex %d labeled %q, want %q", v, info.Labels[v], h.VertexLabel(v))
		}
	}
	for f := 0; f < ne; f++ {
		if info.Labels[nv+f] != h.EdgeLabel(f) {
			return fmt.Errorf("check: pajek hyperedge %d labeled %q, want %q", f, info.Labels[nv+f], h.EdgeLabel(f))
		}
	}
	if len(info.Edges) != h.NumPins() {
		return fmt.Errorf("check: pajek round trip kept %d pins, want %d", len(info.Edges), h.NumPins())
	}
	i := 0
	for f := 0; f < ne; f++ {
		for _, v := range h.Vertices(f) {
			want := [2]int{int(v) + 1, nv + f + 1}
			if info.Edges[i] != want {
				return fmt.Errorf("check: pajek pin %d is %v, want %v", i, info.Edges[i], want)
			}
			i++
		}
	}
	return nil
}

// RoundTripAll runs every format's round-trip check.
func RoundTripAll(h *hypergraph.Hypergraph) error {
	if err := RoundTripText(h); err != nil {
		return err
	}
	if err := RoundTripJSON(h); err != nil {
		return err
	}
	if err := RoundTripMatrixMarket(h); err != nil {
		return err
	}
	return RoundTripPajek(h)
}
