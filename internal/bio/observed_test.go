package bio

import (
	"bytes"
	"strings"
	"testing"

	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

func TestSimulateScreenPerfect(t *testing.T) {
	h := smallH(t) // c1={a,b,c}, c2={b,c,d}, c3={d,e}
	p := TAPParams{PullDownSuccess: 1, PreyDetection: 1}
	baits := []int{0, 1, 2, 3, 4}
	s := SimulateScreen(h, baits, p, xrand.New(1))
	if s.Attempted != h.NumPins() {
		t.Errorf("attempted = %d, want %d", s.Attempted, h.NumPins())
	}
	if len(s.PullDowns) != h.NumPins() {
		t.Errorf("pulldowns = %d, want %d", len(s.PullDowns), h.NumPins())
	}
	for _, pd := range s.PullDowns {
		if len(pd.Observed) != h.EdgeDegree(pd.Complex) {
			t.Errorf("pulldown of complex %d observed %d of %d members",
				pd.Complex, len(pd.Observed), h.EdgeDegree(pd.Complex))
		}
	}
}

func TestObservedHypergraphPerfect(t *testing.T) {
	h := smallH(t)
	p := TAPParams{PullDownSuccess: 1, PreyDetection: 1}
	baits := []int{0, 1, 2, 3, 4}
	s := SimulateScreen(h, baits, p, xrand.New(1))
	obs := ObservedHypergraph(h, s)
	if obs.NumEdges() != h.NumEdges() || obs.NumPins() != h.NumPins() {
		t.Fatalf("perfect screen observed %v, truth %v", obs, h)
	}
	fi, err := NetworkFidelity(h, obs)
	if err != nil {
		t.Fatal(err)
	}
	if fi.MeanJaccard != 1 || fi.PerfectComplexes != h.NumEdges() || fi.MissedPins != 0 {
		t.Errorf("perfect fidelity wrong: %v", fi)
	}
}

// TestObservedHypergraphIgnoresNonMembers feeds the merge a hand-built
// screen whose pull-downs list proteins outside their complex, one
// sorting past the end of the complex's row: they mark nothing, and
// the members beside them still count.
func TestObservedHypergraphIgnoresNonMembers(t *testing.T) {
	h := smallH(t) // c1={a,b,c}, c2={b,c,d}, c3={d,e}
	id := func(name string) int32 {
		v, _ := h.VertexID(name)
		return int32(v)
	}
	c1, _ := h.EdgeID("c1")
	c3, _ := h.EdgeID("c3")
	s := &Screen{Attempted: 2, PullDowns: []PullDown{
		{Bait: int(id("b")), Complex: c1, Observed: []int32{id("b"), id("e")}},
		{Bait: int(id("e")), Complex: c3, Observed: []int32{id("a"), id("e")}},
	}}
	marked := 0
	for _, in := range observedPins(h, s) {
		if in {
			marked++
		}
	}
	if marked != 2 {
		t.Errorf("the merge marked %d pins, want 2 (b of c1, e of c3)", marked)
	}
	obs := ObservedHypergraph(h, s)
	var got bytes.Buffer
	if err := hypergraph.WriteText(&got, obs); err != nil {
		t.Fatal(err)
	}
	if obs.NumEdges() != 2 || obs.NumPins() != 2 || !strings.Contains(got.String(), "obs:c1: b\n") || !strings.Contains(got.String(), "obs:c3: e\n") {
		t.Errorf("observed hypergraph:\n%s\nwant obs:c1 = {b} and obs:c3 = {e}", got.String())
	}
}

func TestObservedHypergraphLossy(t *testing.T) {
	h := smallH(t)
	p := TAPParams{PullDownSuccess: 0.5, PreyDetection: 0.6}
	baits := []int{1} // b only
	s := SimulateScreen(h, baits, p, xrand.New(7))
	obs := ObservedHypergraph(h, s)
	// b belongs to c1 and c2 only: at most 2 observed complexes.
	if obs.NumEdges() > 2 {
		t.Errorf("observed %d complexes from a degree-2 bait", obs.NumEdges())
	}
	fi, err := NetworkFidelity(h, obs)
	if err != nil {
		t.Fatal(err)
	}
	if fi.ComplexesObserved != obs.NumEdges() {
		t.Errorf("fidelity counted %d, observed %d", fi.ComplexesObserved, obs.NumEdges())
	}
	if fi.MeanJaccard > 1 || fi.MeanJaccard < 0 {
		t.Errorf("Jaccard out of range: %v", fi)
	}
	if fi.MissedPins < h.NumPins()-obs.NumPins() {
		t.Errorf("missed pins %d inconsistent", fi.MissedPins)
	}
}

func TestObservedMergesRepeatPullDowns(t *testing.T) {
	// Two baits of the same complex with partial detection: the
	// observed complex is the union of the two pull-downs.
	h := smallH(t)
	p := TAPParams{PullDownSuccess: 1, PreyDetection: 0}
	bID, _ := h.VertexID("b")
	cID, _ := h.VertexID("c")
	s := SimulateScreen(h, []int{bID, cID}, p, xrand.New(3))
	obs := ObservedHypergraph(h, s)
	// With zero prey detection each pull-down observes only its bait;
	// c1 and c2 were each pulled by both b and c → observed as {b, c}.
	c1obs, ok := obs.EdgeID("obs:c1")
	if !ok {
		t.Fatal("obs:c1 missing")
	}
	if obs.EdgeDegree(c1obs) != 2 {
		t.Errorf("merged degree = %d, want 2 (b and c)", obs.EdgeDegree(c1obs))
	}
}

func TestNetworkFidelityRejectsForeign(t *testing.T) {
	h := smallH(t)
	if _, err := NetworkFidelity(h, h); err == nil {
		t.Error("fidelity accepted a network without obs: prefixes")
	}
}

func TestFidelityImprovesWithMulticover(t *testing.T) {
	// Statistical check: double-covered complexes yield higher mean
	// Jaccard than single coverage, averaged over trials.
	h := smallH(t)
	p := TAPParams{PullDownSuccess: 0.7, PreyDetection: 0.8}
	single := []int{0, 3}          // a covers c1, d covers c2+c3
	double := []int{0, 1, 2, 3, 4} // everyone
	rng := xrand.New(42)
	trials := 200
	var js, jd float64
	for i := 0; i < trials; i++ {
		so := ObservedHypergraph(h, SimulateScreen(h, single, p, rng.Split()))
		do := ObservedHypergraph(h, SimulateScreen(h, double, p, rng.Split()))
		fs, err := NetworkFidelity(h, so)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := NetworkFidelity(h, do)
		if err != nil {
			t.Fatal(err)
		}
		js += fs.MeanJaccard * float64(fs.ComplexesObserved) / float64(h.NumEdges())
		jd += fd.MeanJaccard * float64(fd.ComplexesObserved) / float64(h.NumEdges())
	}
	if jd <= js {
		t.Errorf("double coverage fidelity %v not better than single %v", jd/float64(trials), js/float64(trials))
	}
}
