package stats

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

func TestDegreeHistogram(t *testing.T) {
	hist := DegreeHistogram([]int{1, 1, 2, 5, 0})
	want := []int{1, 2, 1, 0, 0, 1}
	if len(hist) != len(want) {
		t.Fatalf("hist = %v, want %v", hist, want)
	}
	for i := range want {
		if hist[i] != want[i] {
			t.Errorf("hist[%d] = %d, want %d", i, hist[i], want[i])
		}
	}
}

func TestDegreeHistogramEmpty(t *testing.T) {
	hist := DegreeHistogram(nil)
	if len(hist) != 1 || hist[0] != 0 {
		t.Errorf("hist = %v, want [0]", hist)
	}
}

func TestFitPowerLawExact(t *testing.T) {
	// Synthesize an exact power law P(d) = 1000·d^−2 and check the fit
	// recovers it with R² = 1.
	hist := make([]int, 11)
	for d := 1; d <= 10; d++ {
		hist[d] = int(math.Round(1000 * math.Pow(float64(d), -2)))
	}
	fit, err := FitPowerLaw(hist)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Gamma-2) > 0.02 {
		t.Errorf("gamma = %v, want ≈ 2", fit.Gamma)
	}
	if math.Abs(fit.LogC-3) > 0.02 {
		t.Errorf("log c = %v, want ≈ 3", fit.LogC)
	}
	if fit.R2 < 0.999 {
		t.Errorf("R² = %v, want ≈ 1", fit.R2)
	}
	if fit.N != 10 {
		t.Errorf("N = %d, want 10", fit.N)
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, err := FitPowerLaw([]int{0, 5}); err == nil {
		t.Error("fit with one point should fail")
	}
	if _, err := FitPowerLaw(nil); err == nil {
		t.Error("fit with no points should fail")
	}
}

func TestFitPowerLawSkipsZeros(t *testing.T) {
	hist := []int{99, 100, 0, 0, 10} // degrees 1 and 4 only; degree 0 ignored
	fit, err := FitPowerLaw(hist)
	if err != nil {
		t.Fatal(err)
	}
	if fit.N != 2 {
		t.Errorf("N = %d, want 2", fit.N)
	}
	// Two points fit exactly.
	if fit.R2 < 0.9999 {
		t.Errorf("R² = %v, want 1", fit.R2)
	}
}

// chainH builds a chain of c complexes: f_i = {v_i, v_{i+1}}.
func chainH(c int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	for i := 0; i < c; i++ {
		b.AddEdge("f"+itoa(i), "v"+itoa(i), "v"+itoa(i+1))
	}
	return b.MustBuild()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

func TestComponents(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddEdge("f1", "a", "b")
	b.AddEdge("f2", "b", "c")
	b.AddEdge("g1", "x", "y")
	b.AddVertex("lonely")
	h := b.MustBuild()
	vComp, eComp, comps := Components(h)
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	// Sorted by size: {a,b,c | f1,f2}, {x,y | g1}, {lonely}.
	if comps[0].Vertices != 3 || comps[0].Edges != 2 {
		t.Errorf("largest component = %+v", comps[0])
	}
	if comps[1].Vertices != 2 || comps[1].Edges != 1 {
		t.Errorf("second component = %+v", comps[1])
	}
	if comps[2].Vertices != 1 || comps[2].Edges != 0 {
		t.Errorf("third component = %+v", comps[2])
	}
	aID, _ := h.VertexID("a")
	bID, _ := h.VertexID("b")
	xID, _ := h.VertexID("x")
	if vComp[aID] != vComp[bID] || vComp[aID] == vComp[xID] {
		t.Error("vertex component labels wrong")
	}
	f1, _ := h.EdgeID("f1")
	if eComp[f1] != vComp[aID] {
		t.Error("edge component label disagrees with member's")
	}
}

func TestSmallWorldChain(t *testing.T) {
	// Chain of 4 complexes over 5 proteins: diameter = 4 (v0 to v4).
	h := chainH(4)
	sw := SmallWorldStats(h, 2)
	if sw.Diameter != 4 {
		t.Errorf("diameter = %d, want 4", sw.Diameter)
	}
	// Distances: pairs at distance 1: 4 (adjacent), 2: 3, 3: 2, 4: 1 →
	// avg = (4·1+3·2+2·3+1·4)/10 = 20/10 = 2.
	if math.Abs(sw.AvgPathLength-2) > 1e-9 {
		t.Errorf("avg path length = %v, want 2", sw.AvgPathLength)
	}
	if sw.Pairs != 10 {
		t.Errorf("pairs = %d, want 10", sw.Pairs)
	}
}

func TestSmallWorldDisconnected(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddEdge("f1", "a", "b")
	b.AddEdge("g1", "x", "y")
	h := b.MustBuild()
	sw := SmallWorldStats(h, 1)
	if sw.Diameter != 1 {
		t.Errorf("diameter = %d, want 1", sw.Diameter)
	}
	if sw.Pairs != 2 {
		t.Errorf("pairs = %d, want 2 (cross-component pairs excluded)", sw.Pairs)
	}
	if sw.AvgPathLength != 1 {
		t.Errorf("avg = %v, want 1", sw.AvgPathLength)
	}
}

func TestSmallWorldEmpty(t *testing.T) {
	h := hypergraph.NewBuilder().MustBuild()
	sw := SmallWorldStats(h, 4)
	if sw.Diameter != 0 || sw.AvgPathLength != 0 {
		t.Errorf("empty small world = %+v", sw)
	}
}

func TestSmallWorldWorkerInvariance(t *testing.T) {
	h := chainH(200) // 201 proteins: four sweeps to share out
	base := SmallWorldStats(h, 1)
	if base.Diameter != 200 || base.Sources != 201 {
		t.Fatalf("one worker gave %+v, want diameter 200 from 201 sources", base)
	}
	for _, w := range []int{2, 3, 8} {
		got := SmallWorldStats(h, w)
		if got != base {
			t.Errorf("workers=%d gave %+v, want %+v", w, got, base)
		}
	}
}

// TestSmallWorldPartial checks the summary of an interrupted run: with
// one worker and the third sweep failing, it covers the 128 sources of
// the first two sweeps, its diameter is theirs, and Pairs counts
// ordered pairs.
func TestSmallWorldPartial(t *testing.T) {
	defer failpoint.Disable("stats.bfs.source")
	if err := failpoint.Enable("stats.bfs.source", failpoint.Arm{Mode: failpoint.ModeError, After: 2, Times: 1}); err != nil {
		t.Fatal(err)
	}
	sw, err := SmallWorldStatsCtx(context.Background(), chainH(200), 1)
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("err = %v, want the injected error", err)
	}
	// Protein i of the 201-protein chain is i and 200-i hops from its ends.
	var sum int64
	for i := int64(0); i < 128; i++ {
		sum += i*(i+1)/2 + (200-i)*(201-i)/2
	}
	want := SmallWorld{Diameter: 200, AvgPathLength: float64(sum) / (128 * 200), Pairs: 128 * 200, Sources: 128}
	if sw != want {
		t.Errorf("partial summary %+v, want %+v", sw, want)
	}
}

func TestDistanceHistogram(t *testing.T) {
	// Chain of 4 complexes over 5 proteins: ordered pairs by distance.
	hist, sources, err := distanceHistogram(context.Background(), chainH(4), 2)
	if err != nil || sources != 5 {
		t.Fatalf("distanceHistogram: %d sources, err %v", sources, err)
	}
	if want := []int64{0, 8, 6, 4, 2}; !slices.Equal(hist, want) {
		t.Errorf("hist = %v, want %v", hist, want)
	}
}

func TestComputeStorageCosts(t *testing.T) {
	// One complex of 10 proteins: 10 pins vs 45 clique edges vs 9 star
	// edges vs 0 intersection edges.
	b := hypergraph.NewBuilder()
	names := make([]string, 10)
	for i := range names {
		names[i] = "p" + itoa(i)
	}
	b.AddEdge("big", names...)
	h := b.MustBuild()
	s := ComputeStorageCosts(h)
	if s.HypergraphPins != 10 || s.CliqueExpansionEdges != 45 || s.StarExpansionEdges != 9 || s.IntersectionEdges != 0 {
		t.Errorf("costs = %+v", s)
	}
	if math.Abs(s.CliqueBlowupFactor-4.5) > 1e-12 {
		t.Errorf("blowup = %v, want 4.5", s.CliqueBlowupFactor)
	}
}

func TestPropertyDiameterAtLeastAvg(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := xrand.New(seed)
		nv := 3 + rng.Intn(12)
		ne := 1 + rng.Intn(10)
		edges := make([][]int32, ne)
		for f := range edges {
			size := 1 + rng.Intn(4)
			for i := 0; i < size; i++ {
				edges[f] = append(edges[f], int32(rng.Intn(nv)))
			}
		}
		h, err := hypergraph.FromEdgeSets(nv, edges)
		if err != nil {
			return false
		}
		sw := SmallWorldStats(h, 3)
		return float64(sw.Diameter) >= sw.AvgPathLength
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
