// Differential round-trip tests over the generator sweep and the
// Cellzome dataset, covering all three IO formats plus JSON.  This
// file is an external test package because check imports hypergraph.
package hypergraph_test

import (
	"fmt"
	"slices"
	"testing"

	"hyperplex/internal/check"
	"hyperplex/internal/dataset"
	"hyperplex/internal/hypergraph"
)

// TestDifferentialRoundTrip pushes every sweep instance through the
// text, JSON, Matrix Market and Pajek round-trip checkers.
func TestDifferentialRoundTrip(t *testing.T) {
	for i, h := range check.Instances(58, 0xF11E5) {
		if err := check.RoundTripAll(h); err != nil {
			t.Fatalf("instance %d %v: %v", i, h, err)
		}
	}
	if err := check.RoundTripAll(dataset.Cellzome().H); err != nil {
		t.Fatalf("Cellzome: %v", err)
	}
}

// builderRoute builds what FromEdgeSets promises through the named
// Builder: vertices "v0"… and hyperedges "f0"… added one by one, with
// the range check and error text FromEdgeSets documents.
func builderRoute(nv int, edges [][]int32) (*hypergraph.Hypergraph, error) {
	b := hypergraph.NewBuilder()
	for v := 0; v < nv; v++ {
		b.AddVertex(fmt.Sprintf("v%d", v))
	}
	for f, members := range edges {
		for _, v := range members {
			if v < 0 || int(v) >= nv {
				return nil, fmt.Errorf("hypergraph: edge %d member %d out of range [0,%d)", f, v, nv)
			}
		}
		b.AddEdgeIDs(fmt.Sprintf("f%d", f), members)
	}
	return b.Build()
}

// sameHypergraph reports the first difference between two hypergraphs
// in their CSR arrays, names and name lookups.
func sameHypergraph(got, want *hypergraph.Hypergraph) error {
	g, w := got.CSR(), want.CSR()
	switch {
	case !slices.Equal(g.VOff, w.VOff):
		return fmt.Errorf("vertex offsets %v, want %v", g.VOff, w.VOff)
	case !slices.Equal(g.VAdj, w.VAdj):
		return fmt.Errorf("vertex adjacency %v, want %v", g.VAdj, w.VAdj)
	case !slices.Equal(g.EOff, w.EOff):
		return fmt.Errorf("edge offsets %v, want %v", g.EOff, w.EOff)
	case !slices.Equal(g.EAdj, w.EAdj):
		return fmt.Errorf("edge adjacency %v, want %v", g.EAdj, w.EAdj)
	}
	lookups := []string{"", "v", "f", "v-1", "f-1", "v01", fmt.Sprintf("v%d", want.NumVertices()), fmt.Sprintf("f%d", want.NumEdges())}
	for v := 0; v < want.NumVertices(); v++ {
		if g, w := got.VertexName(v), want.VertexName(v); g != w {
			return fmt.Errorf("vertex %d named %q, want %q", v, g, w)
		}
		lookups = append(lookups, want.VertexName(v))
	}
	for f := 0; f < want.NumEdges(); f++ {
		if g, w := got.EdgeName(f), want.EdgeName(f); g != w {
			return fmt.Errorf("hyperedge %d named %q, want %q", f, g, w)
		}
		lookups = append(lookups, want.EdgeName(f))
	}
	for _, name := range lookups {
		gv, gok := got.VertexID(name)
		wv, wok := want.VertexID(name)
		if gv != wv || gok != wok {
			return fmt.Errorf("VertexID(%q) = %d, %t, want %d, %t", name, gv, gok, wv, wok)
		}
		gf, gok := got.EdgeID(name)
		wf, wok := want.EdgeID(name)
		if gf != wf || gok != wok {
			return fmt.Errorf("EdgeID(%q) = %d, %t, want %d, %t", name, gf, gok, wf, wok)
		}
	}
	return nil
}

// TestDifferentialFromEdgeSets pins FromEdgeSets, which assembles its
// CSR arrays directly, to the Builder route it replaces: the same
// arrays, names, name lookups and errors, with the caller's rows left
// untouched.  The sweep instances are fed back with every row reversed
// and its first member repeated; the hand-made cases cover empty rows,
// nv of 0 and below, and out-of-range members.
func TestDifferentialFromEdgeSets(t *testing.T) {
	type input struct {
		name  string
		nv    int
		edges [][]int32
	}
	inputs := []input{
		{"empty", 0, nil},
		{"no rows", 3, [][]int32{}},
		{"duplicates, unsorted, empty", 12, [][]int32{{3, 1, 3, 2, 1}, {}, {11, 0, 11}, {5}, {}, {10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}}},
		{"nv 0 with empty rows", 0, [][]int32{{}, {}}},
		{"negative nv with empty rows", -3, [][]int32{{}}},
		{"nv 0 with a member", 0, [][]int32{{}, {0}}},
		{"negative nv with a member", -2, [][]int32{{0}}},
		{"member too large", 4, [][]int32{{0, 1}, {2, 3, 4, 1}, {9}}},
		{"negative member", 4, [][]int32{{1, -1}}},
	}
	for i, h := range append(check.Instances(58, 0xF5E75), dataset.Cellzome().H) {
		edges := make([][]int32, h.NumEdges())
		for f := range edges {
			row := slices.Clone(h.Vertices(f))
			slices.Reverse(row)
			if len(row) > 0 {
				row = append(row, row[0])
			}
			edges[f] = row
		}
		inputs = append(inputs, input{fmt.Sprintf("instance %d %v", i, h), h.NumVertices() + i%3, edges})
	}
	for _, in := range inputs {
		before := make([][]int32, len(in.edges))
		for f, row := range in.edges {
			before[f] = slices.Clone(row)
		}
		got, gerr := hypergraph.FromEdgeSets(in.nv, in.edges)
		for f, row := range in.edges {
			if !slices.Equal(row, before[f]) {
				t.Fatalf("%s: FromEdgeSets changed input row %d from %v to %v", in.name, f, before[f], row)
			}
		}
		want, werr := builderRoute(in.nv, in.edges)
		if werr != nil || gerr != nil {
			if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("%s: FromEdgeSets error %v, Builder route error %v", in.name, gerr, werr)
			}
			continue
		}
		if err := sameHypergraph(got, want); err != nil {
			t.Fatalf("%s: FromEdgeSets vs Builder route: %v", in.name, err)
		}
		if err := got.CSR().Validate(); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
	}
}
