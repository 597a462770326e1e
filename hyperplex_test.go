package hyperplex_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hyperplex"
)

// buildSample constructs the small hypergraph used across the façade
// tests: a planted 3-core {a,b,c,d} with pendants.
func buildSample(t testing.TB) *hyperplex.Hypergraph {
	t.Helper()
	b := hyperplex.NewBuilder()
	b.AddEdge("e1", "a", "b", "c")
	b.AddEdge("e2", "a", "b", "d")
	b.AddEdge("e3", "a", "c", "d")
	b.AddEdge("e4", "b", "c", "d")
	b.AddEdge("p1", "a", "x")
	b.AddEdge("p2", "x", "y")
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestFacadeCorePipeline(t *testing.T) {
	h := buildSample(t)
	mc := hyperplex.MaxCore(h)
	if mc.K != 3 || mc.NumVertices != 4 || mc.NumEdges != 4 {
		t.Fatalf("max core = %d-core %d/%d", mc.K, mc.NumVertices, mc.NumEdges)
	}
	d := hyperplex.Decompose(h)
	if d.MaxK != 3 {
		t.Errorf("MaxK = %d", d.MaxK)
	}
	bi := hyperplex.BiCore(h, 2, 3)
	if bi.NumVertices != 4 {
		t.Errorf("(2,3)-core = %d vertices", bi.NumVertices)
	}
}

func TestFacadeCoverPipeline(t *testing.T) {
	h := buildSample(t)
	g, err := hyperplex.GreedyCover(h, hyperplex.DegreeSquaredWeights(h))
	if err != nil {
		t.Fatal(err)
	}
	if err := hyperplex.VerifyCover(h, g, nil); err != nil {
		t.Error(err)
	}
	e, err := hyperplex.ExactCover(h, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Weight > g.Weight {
		t.Errorf("exact %v worse than greedy %v", e.Weight, g.Weight)
	}
	pd, err := hyperplex.PrimalDualCover(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pd.DualValue > e.Weight+1e-9 {
		t.Errorf("dual %v exceeds optimum %v", pd.DualValue, e.Weight)
	}
	mc, err := hyperplex.GreedyMulticover(h, nil, hyperplex.UniformRequirement(h, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := hyperplex.VerifyCover(h, mc, hyperplex.UniformRequirement(h, 2)); err != nil {
		t.Error(err)
	}
}

func TestFacadeStatsAndModels(t *testing.T) {
	h := buildSample(t)
	_, _, comps := hyperplex.Components(h)
	if len(comps) != 1 {
		t.Errorf("components = %d", len(comps))
	}
	sw := hyperplex.SmallWorldStats(h, 2)
	if sw.Diameter != 3 {
		t.Errorf("diameter = %d", sw.Diameter)
	}
	costs := hyperplex.ComputeStorageCosts(h)
	if costs.CliqueExpansionEdges <= 0 || costs.HypergraphPins != h.NumPins() {
		t.Errorf("costs = %+v", costs)
	}
	bip := hyperplex.Bipartite(h)
	if bip.NumEdges() != h.NumPins() {
		t.Errorf("bipartite edges = %d", bip.NumEdges())
	}
	if g := hyperplex.CliqueExpansion(h); g.NumVertices() != h.NumVertices() {
		t.Error("clique expansion vertex set changed")
	}
	coreness := hyperplex.GraphCoreness(hyperplex.CliqueExpansion(h))
	if len(coreness) != h.NumVertices() {
		t.Error("graph coreness length wrong")
	}
}

func TestFacadeSerializationRoundTrips(t *testing.T) {
	h := buildSample(t)
	var buf bytes.Buffer
	if err := hyperplex.WriteHypergraph(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := hyperplex.ReadHypergraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumPins() != h.NumPins() {
		t.Error("text round trip changed pins")
	}
	var net bytes.Buffer
	if err := hyperplex.WritePajekNet(&net, h, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(net.String(), "*Edges") {
		t.Error("Pajek output missing *Edges")
	}
	mtx := "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n"
	m, err := hyperplex.ReadMatrixMarket(strings.NewReader(mtx))
	if err != nil {
		t.Fatal(err)
	}
	hm, err := hyperplex.MatrixToHypergraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if hm.NumEdges() != 2 {
		t.Errorf("mtx hypergraph edges = %d", hm.NumEdges())
	}
	var mout bytes.Buffer
	if err := hyperplex.WriteMatrixMarket(&mout, m); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDatasets(t *testing.T) {
	inst := hyperplex.Cellzome()
	if inst.H.NumVertices() != 1361 || inst.H.NumEdges() != 232 {
		t.Fatalf("Cellzome shape: %v", inst.H)
	}
	mc := hyperplex.MaxCore(inst.H)
	if mc.K != 6 {
		t.Errorf("Cellzome max core = %d", mc.K)
	}
	sp := hyperplex.SyntheticProteome(1000, 100, 1)
	if sp.NumVertices() != 1000 {
		t.Errorf("proteome shape: %v", sp)
	}
	rh := hyperplex.RandomHypergraph(40, 20, 5, hyperplex.NewRNG(1))
	if rh.NumVertices() != 40 {
		t.Errorf("random shape: %v", rh)
	}
}

func TestFacadeBioPipeline(t *testing.T) {
	inst := hyperplex.Cellzome()
	rng := hyperplex.NewRNG(3)
	params := hyperplex.TAPParams{PullDownSuccess: 0.7, PreyDetection: 0.9, RecoveryFraction: 0.75}
	o := hyperplex.SimulateTAP(inst.H, inst.BaitsReported, params, rng)
	if o.RecoveredCount() == 0 {
		t.Error("no complexes recovered with 459 baits at 70%")
	}
	e := hyperplex.EnrichmentOf(inst.CoreV, inst.Ann.Essential, 0.218, "core essential")
	if e.Subset != 41 {
		t.Errorf("enrichment subset = %d", e.Subset)
	}
}

func TestFacadeFits(t *testing.T) {
	hist := []int{0, 800, 160, 60, 30, 16, 10}
	pl, err := hyperplex.FitPowerLaw(hist)
	if err != nil || pl.Gamma <= 0 {
		t.Errorf("power-law fit: %v %v", pl, err)
	}
	ex, err := hyperplex.FitExponential(hist)
	if err != nil || ex.Lambda <= 0 {
		t.Errorf("exponential fit: %v %v", ex, err)
	}
	v := hyperplex.JudgeDistribution(hist, 0.9)
	if !v.PowerLawOK {
		t.Errorf("verdict: %v", v)
	}
}

// ExampleMaxCore demonstrates the core-proteome computation on a toy
// network.
func ExampleMaxCore() {
	b := hyperplex.NewBuilder()
	b.AddEdge("c1", "a", "b", "c")
	b.AddEdge("c2", "a", "b", "d")
	b.AddEdge("c3", "a", "c", "d")
	b.AddEdge("c4", "b", "c", "d")
	b.AddEdge("pendant", "a", "x")
	h, _ := b.Build()

	mc := hyperplex.MaxCore(h)
	fmt.Printf("%d-core: %d proteins, %d complexes\n", mc.K, mc.NumVertices, mc.NumEdges)
	// Output:
	// 3-core: 4 proteins, 4 complexes
}

// ExampleGreedyCover demonstrates bait selection with degree² weights.
func ExampleGreedyCover() {
	b := hyperplex.NewBuilder()
	b.AddEdge("c1", "hub", "p1")
	b.AddEdge("c2", "hub", "p2")
	b.AddEdge("c3", "hub", "p3")
	h, _ := b.Build()

	unweighted, _ := hyperplex.GreedyCover(h, nil)
	weighted, _ := hyperplex.GreedyCover(h, hyperplex.DegreeSquaredWeights(h))
	fmt.Printf("unweighted picks %d bait(s); degree²-weighted picks %d\n",
		unweighted.Size(), weighted.Size())
	// Output:
	// unweighted picks 1 bait(s); degree²-weighted picks 3
}

// ExampleFitPowerLaw fits the degree distribution of Fig. 1.
func ExampleFitPowerLaw() {
	hist := []int{0, 1000, 177, 64, 31} // ≈ 1000·d^−2.5
	fit, _ := hyperplex.FitPowerLaw(hist)
	fmt.Printf("gamma ≈ %.1f, R² > 0.99: %v\n", fit.Gamma, fit.R2 > 0.99)
	// Output:
	// gamma ≈ 2.5, R² > 0.99: true
}

func TestFacadeObservedNetwork(t *testing.T) {
	inst := hyperplex.Cellzome()
	rng := hyperplex.NewRNG(11)
	params := hyperplex.TAPParams{PullDownSuccess: 0.7, PreyDetection: 0.9, RecoveryFraction: 0.75}
	screen := hyperplex.SimulateScreen(inst.H, inst.BaitsReported, params, rng)
	obs := hyperplex.ObservedHypergraph(inst.H, screen)
	if obs.NumEdges() == 0 || obs.NumEdges() > inst.H.NumEdges() {
		t.Fatalf("observed %d complexes of %d", obs.NumEdges(), inst.H.NumEdges())
	}
	fi, err := hyperplex.NetworkFidelity(inst.H, obs)
	if err != nil {
		t.Fatal(err)
	}
	if fi.MeanJaccard <= 0.5 {
		t.Errorf("fidelity suspiciously low: %v", fi)
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	dir := t.TempDir()
	inst := hyperplex.Cellzome()
	if err := inst.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := hyperplex.LoadInstance(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.H.NumPins() != inst.H.NumPins() {
		t.Error("round trip changed pins")
	}
}

func TestFacadeGraphBuildAndClu(t *testing.T) {
	g, err := hyperplex.BuildGraph(3, [][2]int32{{0, 1}, {1, 2}})
	if err != nil || g.NumEdges() != 2 {
		t.Fatalf("BuildGraph: %v %v", g, err)
	}
	if _, err := hyperplex.BuildGraph(1, [][2]int32{{0, 5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	h := buildSample(t)
	var clu bytes.Buffer
	if err := hyperplex.WritePajekClu(&clu, h, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(clu.String(), "*Vertices") {
		t.Error("clu header missing")
	}
	ig, edges, weights := hyperplex.IntersectionGraph(h)
	if ig.NumVertices() != h.NumEdges() || len(edges) != len(weights) {
		t.Error("intersection graph shape wrong")
	}
	star := hyperplex.StarExpansion(h, nil)
	if star.NumVertices() != h.NumVertices() {
		t.Error("star expansion shape wrong")
	}
}

func TestFacadeBiCoreAndExamplesCompile(t *testing.T) {
	h := buildSample(t)
	d := hyperplex.Decompose(h)
	if len(d.Profile()) != d.MaxK {
		t.Error("profile length mismatch")
	}
	p, ok := hyperplex.ShortestPath(h, 0, 1)
	if !ok || p.Len() < 1 {
		t.Errorf("path: %+v %v", p, ok)
	}
	req, err := hyperplex.RequirementsForReliability(h, 0.7, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if _, mean := hyperplex.ExpectedRecovery(h, []int{0}, 0.7); mean <= 0 {
		t.Error("expected recovery zero")
	}
	c, err := hyperplex.GreedyMulticover(h, nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := hyperplex.VerifyCover(h, c, req); err != nil {
		t.Error(err)
	}
}
