package gen

import (
	"testing"
	"testing/quick"

	"hyperplex/internal/core"
	"hyperplex/internal/mmio"
	"hyperplex/internal/xrand"
)

func TestPowerLawDegreeSequence(t *testing.T) {
	rng := xrand.New(1)
	deg := PowerLawDegreeSequence(1000, 2.5, 1, 21, rng)
	if len(deg) != 1000 {
		t.Fatalf("len = %d", len(deg))
	}
	ones := 0
	for i, d := range deg {
		if d < 1 || d > 21 {
			t.Fatalf("degree %d out of [1,21]", d)
		}
		if i > 0 && deg[i-1] < d {
			t.Fatal("sequence not sorted descending")
		}
		if d == 1 {
			ones++
		}
	}
	// With gamma 2.5 the majority of degrees are 1.
	if ones < 500 {
		t.Errorf("degree-1 count = %d, want majority", ones)
	}
}

func TestPowerLawDegreeSequenceDeterministic(t *testing.T) {
	a := PowerLawDegreeSequence(100, 2.5, 1, 21, xrand.New(42))
	b := PowerLawDegreeSequence(100, 2.5, 1, 21, xrand.New(42))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different sequences")
		}
	}
}

func TestBipartiteConfigurationBasic(t *testing.T) {
	rng := xrand.New(3)
	vDeg := []int{3, 2, 2, 1, 1, 1}
	eSize := []int{4, 3, 3}
	edges, err := BipartiteConfiguration(vDeg, eSize, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 3 {
		t.Fatalf("edges = %d", len(edges))
	}
	// No duplicates within an edge; total pins ≤ Σ sizes.
	pins := 0
	for f, members := range edges {
		seen := map[int32]bool{}
		for _, v := range members {
			if seen[v] {
				t.Errorf("edge %d contains %d twice", f, v)
			}
			seen[v] = true
		}
		pins += len(members)
	}
	if pins != 10 {
		t.Errorf("pins = %d, want 10 (no drops expected here)", pins)
	}
}

func TestBipartiteConfigurationErrors(t *testing.T) {
	rng := xrand.New(1)
	if _, err := BipartiteConfiguration([]int{1}, []int{2}, rng); err == nil {
		t.Error("mismatched sums accepted")
	}
	if _, err := BipartiteConfiguration([]int{-1, 3}, []int{2}, rng); err == nil {
		t.Error("negative degree accepted")
	}
	if _, err := BipartiteConfiguration([]int{2}, []int{2}, rng); err == nil {
		t.Error("edge size beyond vertex count accepted")
	}
}

func TestPropertyBipartiteConfigurationDegrees(t *testing.T) {
	// Vertex degrees of the wired hypergraph match the requested
	// sequence when no drops occur (drops only shrink).
	prop := func(seed uint64) bool {
		rng := xrand.New(seed)
		nv := 5 + rng.Intn(20)
		ne := 2 + rng.Intn(8)
		vDeg := make([]int, nv)
		total := 0
		for i := range vDeg {
			vDeg[i] = rng.Intn(3)
			total += vDeg[i]
		}
		// Distribute the total over edges without exceeding nv each.
		eSize := make([]int, ne)
		rem := total
		for f := 0; f < ne; f++ {
			max := rem
			if max > nv {
				max = nv
			}
			if f == ne-1 {
				if rem > nv {
					// Push the remainder onto the vertex side instead:
					// shrink some vertex degrees.
					for i := range vDeg {
						for vDeg[i] > 0 && rem > nv {
							vDeg[i]--
							rem--
							total--
						}
					}
				}
				eSize[f] = rem
				rem = 0
				break
			}
			s := 0
			if max > 0 {
				s = rng.Intn(max + 1)
			}
			eSize[f] = s
			rem -= s
		}
		edges, err := BipartiteConfiguration(vDeg, eSize, rng)
		if err != nil {
			return false
		}
		got := make([]int, nv)
		for _, members := range edges {
			for _, v := range members {
				got[v]++
			}
		}
		for v := range got {
			if got[v] > vDeg[v] {
				return false // can only shrink, never grow
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRandomHypergraph(t *testing.T) {
	h := RandomHypergraph(50, 30, 6, xrand.New(9))
	if h.NumVertices() != 50 || h.NumEdges() != 30 {
		t.Fatalf("shape: %v", h)
	}
	if err := h.CSR().Validate(); err != nil {
		t.Fatal(err)
	}
	if h.MaxEdgeDegree() > 6 {
		t.Errorf("max edge degree %d > 6", h.MaxEdgeDegree())
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(500, 3, xrand.New(11))
	if g.NumVertices() != 500 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
	// Every non-seed vertex has degree ≥ m = 3.
	for v := 4; v < 500; v++ {
		if g.Degree(v) < 3 {
			t.Fatalf("vertex %d degree %d < 3", v, g.Degree(v))
		}
	}
	// Coreness bounded by m.
	maxK, _ := core.GraphMaxCore(g)
	if maxK > 3 {
		t.Errorf("PA coreness %d > m = 3", maxK)
	}
	// Heavy tail: max degree far above m.
	if g.MaxDegree() < 10 {
		t.Errorf("max degree %d suspiciously small for PA", g.MaxDegree())
	}
}

func TestPlantDenseSubgraph(t *testing.T) {
	rng := xrand.New(5)
	bg := PreferentialAttachment(800, 3, rng)
	g := PlantDenseSubgraph(bg, 33, 10, rng)
	k, in := core.GraphMaxCore(g)
	if k != 10 {
		t.Fatalf("planted max core k = %d, want 10", k)
	}
	n := 0
	for v, b := range in {
		if b {
			n++
			if v < 800-33 {
				t.Errorf("background vertex %d in the planted core", v)
			}
		}
	}
	if n != 33 {
		t.Errorf("core size = %d, want 33", n)
	}
}

func TestSyntheticMatrix(t *testing.T) {
	spec := MatrixSpec{Name: "t", Rows: 100, Cols: 100, Band: 4, BandFill: 0.5, RandomPerRow: 1, Seed: 7}
	m := SyntheticMatrix(spec)
	if m.Rows != 100 || m.Cols != 100 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.NNZ() < 100 { // at least the diagonal
		t.Errorf("nnz = %d", m.NNZ())
	}
	for k := 0; k < m.NNZ(); k++ {
		if m.RowIdx[k] < 0 || m.RowIdx[k] >= 100 || m.ColIdx[k] < 0 || m.ColIdx[k] >= 100 {
			t.Fatalf("entry %d out of range", k)
		}
	}
	// Deterministic.
	m2 := SyntheticMatrix(spec)
	if m2.NNZ() != m.NNZ() {
		t.Error("same spec gave different matrices")
	}
	// Hypergraph conversion works.
	h, err := mmio.ToHypergraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 100 || h.NumEdges() != 100 {
		t.Errorf("hypergraph shape: %v", h)
	}
}

func TestTable1Specs(t *testing.T) {
	full := Table1Specs(false)
	short := Table1Specs(true)
	if len(full) != 5 || len(short) != 5 {
		t.Fatalf("spec counts: %d, %d", len(full), len(short))
	}
	for i := range full {
		if short[i].Rows >= full[i].Rows {
			t.Errorf("short spec %s not smaller", full[i].Name)
		}
		if full[i].Name == "" {
			t.Error("unnamed spec")
		}
	}
}
