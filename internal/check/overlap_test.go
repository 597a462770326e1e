package check

import (
	"testing"

	"hyperplex/internal/dataset"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

// TestOverlapTableFill checks the freshly built table against a
// brute-force count for every hyperedge pair.
func TestOverlapTableFill(t *testing.T) {
	for i, h := range Instances(20, 0x5ED0CE) {
		tab := NewOverlapTable(h)
		ne := h.NumEdges()
		allAlive := make([]bool, h.NumVertices())
		for v := range allAlive {
			allAlive[v] = true
		}
		for f := 0; f < ne; f++ {
			for g := 0; g < ne; g++ {
				if f == g {
					continue
				}
				if got, want := tab.Overlap(f, g), bruteOverlap(h, allAlive, f, g); got != want {
					t.Fatalf("instance %d %v: Overlap(%d, %d) = %d, want %d", i, h, f, g, got, want)
				}
			}
		}
	}
}

// bruteOverlap counts |f ∩ g| over the alive vertices directly.
func bruteOverlap(h *hypergraph.Hypergraph, vAlive []bool, f, g int) int {
	inF := make(map[int32]bool)
	for _, v := range h.Vertices(f) {
		if vAlive[v] {
			inF[v] = true
		}
	}
	n := 0
	for _, v := range h.Vertices(g) {
		if vAlive[v] && inF[v] {
			n++
		}
	}
	return n
}

// TestOverlapTableIncremental deletes vertices one at a time the way
// the overlap peeler does (ShrinkPairwise on the live incident edges,
// DropEdge on emptied ones) and checks the table against brute force
// after every deletion.
func TestOverlapTableIncremental(t *testing.T) {
	for i, h := range Instances(20, 0x5ED0CE) {
		nv, ne := h.NumVertices(), h.NumEdges()
		tab := NewOverlapTable(h)
		vAlive := make([]bool, nv)
		eAlive := make([]bool, ne)
		eDeg := make([]int, ne)
		for v := range vAlive {
			vAlive[v] = true
		}
		for f := range eAlive {
			eAlive[f] = true
			eDeg[f] = h.EdgeDegree(f)
		}
		rng := xrand.New(uint64(0xD0D0 + i))
		for _, v := range rng.Perm(nv) {
			vAlive[v] = false
			var live []int32
			for _, f := range h.Edges(v) {
				if eAlive[f] {
					live = append(live, f)
					eDeg[f]--
				}
			}
			tab.ShrinkPairwise(live)
			for _, f := range live {
				if eDeg[f] == 0 {
					eAlive[f] = false
					tab.DropEdge(int(f))
				}
			}
			for f := 0; f < ne; f++ {
				if !eAlive[f] {
					continue
				}
				for g := f + 1; g < ne; g++ {
					if !eAlive[g] {
						continue
					}
					want := bruteOverlap(h, vAlive, f, g)
					if got := tab.Overlap(f, g); got != want {
						t.Fatalf("instance %d %v after deleting vertex %d: Overlap(%d, %d) = %d, want %d",
							i, h, v, f, g, got, want)
					}
					if got := tab.Overlap(g, f); got != want {
						t.Fatalf("instance %d %v after deleting vertex %d: Overlap(%d, %d) = %d, want %d (asymmetry)",
							i, h, v, g, f, got, want)
					}
				}
			}
		}
	}
}

// TestOverlapOracleValid holds the overlap peeler to the definitional
// checkers, so the reference the engines are compared with is itself
// checked: every level of OverlapDecompose, and OverlapCore at the
// (k, l) pairs of the core differential, on the sweep and Cellzome.
func TestOverlapOracleValid(t *testing.T) {
	pairs := [][2]int{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {0, 2}, {1, 2}, {2, 2}, {1, 3}, {2, 4}}
	for i, h := range append(Instances(58, 0x0F1A9), dataset.Cellzome().H) {
		if err := ValidDecomposition(h, OverlapDecompose(h)); err != nil {
			t.Fatalf("instance %d %v: OverlapDecompose: %v", i, h, err)
		}
		for _, kl := range pairs {
			if err := ValidBiCore(h, kl[0], kl[1], OverlapCore(h, kl[0], kl[1])); err != nil {
				t.Fatalf("instance %d %v: OverlapCore(%d, %d): %v", i, h, kl[0], kl[1], err)
			}
		}
	}
	if r := OverlapCore(dataset.Cellzome().H, 6, 1); r.NumVertices != 41 || r.NumEdges != 54 {
		t.Fatalf("Cellzome 6-core is %d/%d, want the paper's 41/54", r.NumVertices, r.NumEdges)
	}
}
