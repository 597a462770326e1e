package bio

import (
	"fmt"

	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

// The Cellzome data the paper models *is* the output of pull-downs:
// each successful purification contributes one observed complex (the
// bait plus its detected preys), and observations of the same complex
// are merged.  This file closes that loop: SimulateScreen runs the
// pull-downs and materializes the observed hypergraph, and
// NetworkFidelity measures how faithfully it reproduces the truth —
// which lets experiment X1 report not just "complexes touched" but the
// quality of the recovered network under different bait designs.

// PullDown is one successful purification.
type PullDown struct {
	Bait     int     // bait vertex (truth IDs)
	Complex  int     // the truth hyperedge that was purified
	Observed []int32 // detected members (bait included), sorted
}

// Screen is the full record of a simulated TAP experiment.
type Screen struct {
	PullDowns []PullDown
	Attempted int // total pull-downs attempted (Σ bait degrees)
}

// SimulateScreen runs one screen like SimulateTAP but keeps the
// per-pull-down records needed to build the observed network.
func SimulateScreen(h *hypergraph.Hypergraph, baits []int, p TAPParams, rng *xrand.RNG) *Screen {
	s := &Screen{}
	for _, b := range baits {
		for _, f := range h.Edges(b) {
			s.Attempted++
			if rng.Float64() >= p.PullDownSuccess {
				continue
			}
			// The row is sorted, so Observed is too.
			row := h.Vertices(int(f))
			pd := PullDown{Bait: b, Complex: int(f), Observed: make([]int32, 0, len(row))}
			for _, m := range row {
				if int(m) == b || rng.Float64() < p.PreyDetection {
					pd.Observed = append(pd.Observed, m)
				}
			}
			s.PullDowns = append(s.PullDowns, pd)
		}
	}
	return s
}

// observedPins merges the screen's pull-downs per complex: seen[i]
// reports whether some pull-down of the complex owning pin i of h (in
// the row order of h.CSR().EAdj) observed that member.  A pull-down's
// Observed list and its complex's row are both sorted, so one forward
// walk of the row finds its pins; a listed protein that is not a
// member of the complex marks nothing.
func observedPins(h *hypergraph.Hypergraph, s *Screen) []bool {
	seen := make([]bool, h.NumPins())
	off := h.CSR().EOff
	for _, pd := range s.PullDowns {
		row, pins := h.Vertices(pd.Complex), seen[off[pd.Complex]:]
		j := 0
		for _, m := range pd.Observed {
			for j < len(row) && row[j] < m {
				j++
			}
			if j < len(row) && row[j] == m {
				pins[j] = true
			}
		}
	}
	return seen
}

// ObservedHypergraph merges the screen's pull-downs into the observed
// protein-complex hypergraph, the analogue of the published Cellzome
// dataset: pull-downs of the same underlying complex are unioned into
// one observed complex, and the observed complexes keep the order of
// the true ones.  Vertex IDs and names are shared with the truth
// hypergraph; proteins never observed become isolated vertices.
func ObservedHypergraph(truth *hypergraph.Hypergraph, s *Screen) *hypergraph.Hypergraph {
	seen := observedPins(truth, s)
	off := truth.CSR().EOff
	b := hypergraph.NewBuilder()
	for v := 0; v < truth.NumVertices(); v++ {
		b.AddVertex(truth.VertexLabel(v))
	}
	var members []int32
	for f := 0; f < truth.NumEdges(); f++ {
		members = members[:0]
		for j, m := range truth.Vertices(f) {
			if seen[int(off[f])+j] {
				members = append(members, m)
			}
		}
		if len(members) > 0 {
			b.AddEdgeIDs("obs:"+truth.EdgeLabel(f), members)
		}
	}
	return b.MustBuild()
}

// Fidelity compares an observed network against the truth.
type Fidelity struct {
	// ComplexesObserved of ComplexesTrue were seen at least once.
	ComplexesObserved int
	ComplexesTrue     int
	// MeanJaccard is the average, over observed complexes, of the
	// Jaccard similarity to their true membership.
	MeanJaccard float64
	// PerfectComplexes counts observed complexes recovered exactly.
	PerfectComplexes int
	// MissedPins counts (complex, protein) incidences never observed,
	// over all true complexes.
	MissedPins int
	TruePins   int
}

// NetworkFidelity measures the observed hypergraph against the truth.
// Observed complexes are matched to their originating true complex by
// name ("obs:" prefix).
func NetworkFidelity(truth, observed *hypergraph.Hypergraph) (Fidelity, error) {
	fi := Fidelity{ComplexesTrue: truth.NumEdges(), TruePins: truth.NumPins()}
	seenPins := 0
	var sumJ float64
	for of := 0; of < observed.NumEdges(); of++ {
		name := observed.EdgeName(of)
		const prefix = "obs:"
		if len(name) < len(prefix) || name[:len(prefix)] != prefix {
			return fi, fmt.Errorf("bio: observed complex %q lacks the obs: prefix", name)
		}
		tf, ok := truth.EdgeID(name[len(prefix):])
		if !ok {
			return fi, fmt.Errorf("bio: observed complex %q has no true counterpart", name)
		}
		fi.ComplexesObserved++
		inter := 0
		for _, m := range observed.Vertices(of) {
			tm, ok := truth.VertexID(observed.VertexName(int(m)))
			if ok && truth.EdgeContains(tf, tm) {
				inter++
			}
		}
		union := observed.EdgeDegree(of) + truth.EdgeDegree(tf) - inter
		j := 0.0
		if union > 0 {
			j = float64(inter) / float64(union)
		}
		sumJ += j
		if j == 1 {
			fi.PerfectComplexes++
		}
		seenPins += inter
	}
	if fi.ComplexesObserved > 0 {
		fi.MeanJaccard = sumJ / float64(fi.ComplexesObserved)
	}
	fi.MissedPins = fi.TruePins - seenPins
	return fi, nil
}

func (f Fidelity) String() string {
	return fmt.Sprintf("%d/%d complexes observed, mean Jaccard %.3f, %d exact, %d/%d pins missed",
		f.ComplexesObserved, f.ComplexesTrue, f.MeanJaccard, f.PerfectComplexes, f.MissedPins, f.TruePins)
}
