package bio

import (
	"strings"
	"testing"

	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

func TestGenerateOrthology(t *testing.T) {
	h := smallH(t)
	rng := xrand.New(1)
	m, err := GenerateOrthology(h, 1.0, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	for v, tgt := range m.ToTarget {
		if tgt < 0 {
			t.Errorf("full orthology left vertex %d unmapped", v)
		}
		if !strings.HasPrefix(m.TargetNames[tgt], "t:") {
			t.Errorf("target name %q", m.TargetNames[tgt])
		}
	}
	if len(m.TargetNames) != h.NumVertices()+3 {
		t.Errorf("target proteome size = %d", len(m.TargetNames))
	}

	none, err := GenerateOrthology(h, 0.0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range none.ToTarget {
		if tgt != -1 {
			t.Error("zero orthology mapped something")
		}
	}

	if _, err := GenerateOrthology(h, 1.5, 0, rng); err == nil {
		t.Error("orthologFrac outside [0,1] accepted")
	}
	if _, err := GenerateOrthology(h, -0.1, 0, rng); err == nil {
		t.Error("negative orthologFrac accepted")
	}
}

func TestProjectHypergraph(t *testing.T) {
	h := smallH(t) // c1={a,b,c}, c2={b,c,d}, c3={d,e}
	rng := xrand.New(2)
	m, err := GenerateOrthology(h, 1.0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Remove d's ortholog by hand.
	d, _ := h.VertexID("d")
	m.ToTarget[d] = -1
	proj := ProjectHypergraph(h, m, 2)
	// c1 keeps 3 members; c2 keeps {b,c}; c3 keeps only {e} → dropped.
	if proj.NumEdges() != 2 {
		t.Fatalf("projected edges = %d, want 2", proj.NumEdges())
	}
	c2, ok := proj.EdgeID("proj:c2")
	if !ok || proj.EdgeDegree(c2) != 2 {
		t.Errorf("proj:c2 degree = %d", proj.EdgeDegree(c2))
	}
	if _, ok := proj.EdgeID("proj:c3"); ok {
		t.Error("undersized complex survived projection")
	}
	if err := proj.CSR().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDivergeComplexes(t *testing.T) {
	h := smallH(t)
	rng := xrand.New(3)
	m, err := GenerateOrthology(h, 1.0, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	proj := ProjectHypergraph(h, m, 1)

	// No divergence: structure preserved (names prefixed).
	same := DivergeComplexes(proj, DivergenceParams{}, xrand.New(4))
	if same.NumEdges() != proj.NumEdges() || same.NumPins() != proj.NumPins() {
		t.Errorf("zero divergence changed structure: %v vs %v", same, proj)
	}
	// Full drop: nothing remains.
	gone := DivergeComplexes(proj, DivergenceParams{DropComplex: 1}, xrand.New(4))
	if gone.NumEdges() != 0 {
		t.Errorf("full drop left %d complexes", gone.NumEdges())
	}
	// Member drift keeps validity.
	drift := DivergeComplexes(proj, DivergenceParams{DropMember: 0.3, AddMember: 1.5}, xrand.New(5))
	if err := drift.CSR().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTransferBaits(t *testing.T) {
	h := smallH(t)
	rng := xrand.New(6)
	m, err := GenerateOrthology(h, 1.0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	proj := ProjectHypergraph(h, m, 1)
	truth := DivergeComplexes(proj, DivergenceParams{DropMember: 0.2}, rng)
	baits := []int{0, 1}
	tb, err := TransferBaits(proj, truth, baits)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range baits {
		if truth.VertexName(tb[i]) != proj.VertexName(b) {
			t.Errorf("bait %d name mismatch", i)
		}
	}
}

func TestCrossOrganismPipeline(t *testing.T) {
	// End-to-end: model → orthology → projection → divergence → bait
	// transfer → simulated screen.  The screen must recover a sizeable
	// fraction of the true complexes.
	b := hypergraph.NewBuilder()
	for i := 0; i < 12; i++ {
		names := []string{}
		for j := 0; j < 4; j++ {
			names = append(names, string(rune('a'+(i*2+j)%20)))
		}
		b.AddEdge("cx"+string(rune('A'+i)), names...)
	}
	h := b.MustBuild()
	rng := xrand.New(99)
	m, err := GenerateOrthology(h, 0.9, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	proj := ProjectHypergraph(h, m, 2)
	truth := DivergeComplexes(proj, DivergenceParams{DropComplex: 0.1, DropMember: 0.1, AddMember: 0.5}, rng)
	if truth.NumEdges() == 0 {
		t.Skip("all complexes diverged away under this seed")
	}
	// Baits: every projected vertex (exhaustive upper bound).
	baits := make([]int, proj.NumVertices())
	for i := range baits {
		baits[i] = i
	}
	tb, err := TransferBaits(proj, truth, baits)
	if err != nil {
		t.Fatal(err)
	}
	o := SimulateTAP(truth, tb, TAPParams{PullDownSuccess: 1, PreyDetection: 1, RecoveryFraction: 1}, rng)
	if o.RecoveredCount() != truth.NumEdges() {
		t.Errorf("perfect exhaustive screen recovered %d of %d", o.RecoveredCount(), truth.NumEdges())
	}
}
