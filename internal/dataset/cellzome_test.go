package dataset

import (
	"testing"

	"hyperplex/internal/bio"
	"hyperplex/internal/core"
	"hyperplex/internal/cover"
	"hyperplex/internal/stats"
)

// TestCellzomeCalibration pins the structural targets the synthetic
// instance must reproduce exactly, and logs the soft metrics
// (small-world numbers, power-law fit, cover sizes) for comparison.
func TestCellzomeCalibration(t *testing.T) {
	inst := Cellzome()
	h := inst.H
	want := inst.Published

	if err := h.CSR().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := h.NumVertices(); got != want.Proteins {
		t.Errorf("proteins = %d, want %d", got, want.Proteins)
	}
	if got := h.NumEdges(); got != want.Complexes {
		t.Errorf("complexes = %d, want %d", got, want.Complexes)
	}
	if got := h.MaxVertexDegree(); got != want.MaxProteinDegree {
		t.Errorf("max protein degree = %d, want %d", got, want.MaxProteinDegree)
	}
	adh1, ok := h.VertexID("ADH1")
	if !ok || h.VertexDegree(adh1) != want.MaxProteinDegree {
		t.Errorf("ADH1 degree = %d, want %d", h.VertexDegree(adh1), want.MaxProteinDegree)
	}
	deg1 := 0
	for v := 0; v < h.NumVertices(); v++ {
		if h.VertexDegree(v) == 1 {
			deg1++
		}
	}
	if deg1 != want.DegreeOneProteins {
		t.Errorf("degree-1 proteins = %d, want %d", deg1, want.DegreeOneProteins)
	}

	_, _, comps := stats.Components(h)
	if len(comps) != want.Components {
		t.Errorf("components = %d, want %d", len(comps), want.Components)
	}
	if comps[0].Vertices != want.LargestCompV || comps[0].Edges != want.LargestCompF {
		t.Errorf("largest component = %d/%d, want %d/%d",
			comps[0].Vertices, comps[0].Edges, want.LargestCompV, want.LargestCompF)
	}

	mc := core.MaxCore(h)
	if mc.K != want.MaxCoreK || mc.NumVertices != want.MaxCoreProteins || mc.NumEdges != want.MaxCoreComplexes {
		t.Errorf("max core = %d-core %d/%d, want %d-core %d/%d",
			mc.K, mc.NumVertices, mc.NumEdges, want.MaxCoreK, want.MaxCoreProteins, want.MaxCoreComplexes)
	}
	// The computed core must be the planted one.
	for v := range mc.VertexIn {
		if mc.VertexIn[v] != inst.CoreV[v] {
			t.Errorf("core membership of vertex %d (%s) = %v, planted %v", v, h.VertexName(v), mc.VertexIn[v], inst.CoreV[v])
			break
		}
	}

	if len(inst.Singletons) != want.SingletonComplexes {
		t.Errorf("singletons = %d, want %d", len(inst.Singletons), want.SingletonComplexes)
	}
	if len(inst.BaitsUsed) != want.BaitsUsed || len(inst.BaitsReported) != want.BaitsReported {
		t.Errorf("baits = %d used / %d reported, want %d / %d",
			len(inst.BaitsUsed), len(inst.BaitsReported), want.BaitsUsed, want.BaitsReported)
	}
	if err := inst.Ann.Validate(h); err != nil {
		t.Errorf("annotations: %v", err)
	}

	// ---- Soft (shape) metrics: logged, loosely bounded. ----
	sw := stats.SmallWorldStats(h, 0)
	t.Logf("diameter = %d (paper %d), avg path = %.3f (paper %.3f)",
		sw.Diameter, want.Diameter, sw.AvgPathLength, want.AvgPathLength)
	if sw.Diameter != want.Diameter {
		t.Errorf("diameter = %d, want %d", sw.Diameter, want.Diameter)
	}
	if sw.AvgPathLength < 2.4 || sw.AvgPathLength > 2.75 {
		t.Errorf("avg path %.3f too far from paper's %.3f", sw.AvgPathLength, want.AvgPathLength)
	}

	fit, err := stats.FitPowerLaw(stats.DegreeHistogram(h.VertexDegrees()))
	if err != nil {
		t.Fatalf("power-law fit: %v", err)
	}
	t.Logf("power law: %v (paper logC=%.3f γ=%.3f R²=%.3f)", fit, want.PowerLawLogC, want.PowerLawGamma, want.PowerLawR2)
	if fit.Gamma < 1.8 || fit.Gamma > 3.2 {
		t.Errorf("gamma %.3f too far from paper's %.3f", fit.Gamma, want.PowerLawGamma)
	}
	if fit.R2 < 0.85 {
		t.Errorf("R² %.3f too low (paper %.3f)", fit.R2, want.PowerLawR2)
	}

	// Cover shapes (§4.2).
	c1, err := cover.GreedyMulticover(h, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("greedy cover: %d proteins avg deg %.2f (paper %d @ %.1f)",
		c1.Size(), c1.AverageDegree(h), want.GreedyCoverSize, want.GreedyCoverAvgDeg)
	c2, err := cover.GreedyMulticover(h, cover.DegreeSquaredWeights(h), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("weighted cover: %d proteins avg deg %.2f (paper %d @ %.2f)",
		c2.Size(), c2.AverageDegree(h), want.WeightedCoverSize, want.WeightedCoverAvgD)
	req := cover.UniformRequirement(h, 2)
	for _, f := range inst.Singletons {
		req[f] = 0
	}
	c3, err := cover.GreedyMulticover(h, cover.DegreeSquaredWeights(h), req)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("2-multicover: %d proteins avg deg %.2f (paper %d @ %.2f)",
		c3.Size(), c3.AverageDegree(h), want.MulticoverSize, want.MulticoverAvgDeg)

	// Orderings the paper's argument depends on.
	if !(c1.Size() < c2.Size() && c2.Size() < c3.Size()) {
		t.Errorf("cover size ordering broken: %d, %d, %d", c1.Size(), c2.Size(), c3.Size())
	}
	if !(c2.AverageDegree(h) < c1.AverageDegree(h)) {
		t.Errorf("weighted cover should have lower average degree: %.2f vs %.2f",
			c2.AverageDegree(h), c1.AverageDegree(h))
	}

	// Bait statistics (§4.2 baseline).
	baitStats := bio.ComputeBaitStats(h, inst.BaitsReported)
	t.Logf("reported baits: %v (paper %d @ %.2f)", baitStats, want.BaitsReported, want.BaitAvgDegree)
	if baitStats.AverageDegree < 1.3 || baitStats.AverageDegree > 2.3 {
		t.Errorf("bait avg degree %.2f too far from paper's %.2f", baitStats.AverageDegree, want.BaitAvgDegree)
	}
	// The reported baits must cover every complex (each complex was
	// identified from some bait).
	inCover := make([]bool, h.NumVertices())
	for _, v := range inst.BaitsReported {
		inCover[v] = true
	}
	if err := cover.Verify(h, &cover.Cover{Vertices: inst.BaitsReported, InCover: inCover}, nil); err != nil {
		t.Errorf("reported baits do not cover all complexes: %v", err)
	}
}

func TestCellzomeDeterministic(t *testing.T) {
	a := Cellzome()
	b := Cellzome()
	if a.H.NumPins() != b.H.NumPins() {
		t.Fatal("two builds differ in pins")
	}
	for f := 0; f < a.H.NumEdges(); f++ {
		av, bv := a.H.Vertices(f), b.H.Vertices(f)
		if len(av) != len(bv) {
			t.Fatalf("edge %d differs", f)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("edge %d member %d differs", f, i)
			}
		}
	}
}

func TestDIPInstances(t *testing.T) {
	for _, gi := range []*GraphInstance{DIPYeast(), DIPFly()} {
		if gi.G.NumVertices() != gi.Published.Proteins {
			t.Errorf("%s: |V| = %d, want %d", gi.Published.Name, gi.G.NumVertices(), gi.Published.Proteins)
		}
		k, in := core.GraphMaxCore(gi.G)
		if k != gi.Published.MaxCoreK {
			t.Errorf("%s: max core k = %d, want %d", gi.Published.Name, k, gi.Published.MaxCoreK)
		}
		n := 0
		for _, b := range in {
			if b {
				n++
			}
		}
		if n != gi.Published.CoreSize {
			t.Errorf("%s: core size = %d, want %d", gi.Published.Name, n, gi.Published.CoreSize)
		}
	}
}

func TestTable1Hypergraphs(t *testing.T) {
	names, hs := Table1Hypergraphs(true)
	if len(names) != 6 || len(hs) != 6 {
		t.Fatalf("rows = %d", len(names))
	}
	if names[0] != "Cellzome" {
		t.Errorf("first row = %q", names[0])
	}
	for i, h := range hs {
		if err := h.CSR().Validate(); err != nil {
			t.Errorf("%s: %v", names[i], err)
		}
	}
}
