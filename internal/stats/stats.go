// Package stats computes the network statistics reported in §2 of the
// paper: degree distributions and their power-law fits (Fig. 1),
// connected components, and the small-world metrics — diameter and
// average path length — under the hypergraph path metric (paths
// alternate vertices and hyperedges; the length is the number of
// hyperedges).  It also accounts for the storage costs of the
// competing graph models (§1.2).
package stats

import (
	"fmt"
	"math"
	"sort"

	"hyperplex/internal/graph"
	"hyperplex/internal/hypergraph"
)

// DegreeHistogram returns hist where hist[d] is the number of entries
// of degrees equal to d, up to the maximum degree present.
func DegreeHistogram(degrees []int) []int {
	max := 0
	for _, d := range degrees {
		if d > max {
			max = d
		}
	}
	hist := make([]int, max+1)
	for _, d := range degrees {
		hist[d]++
	}
	return hist
}

// PowerLawFit holds the least-squares fit of log10 P(d) = log10 c − γ·log10 d
// over the degrees with non-zero frequency, as in Fig. 1 of the paper
// (which reports log c = 3.161, γ = 2.528, R² = 0.963 for the protein
// degrees).
type PowerLawFit struct {
	LogC  float64 // intercept, log10 of the amplitude
	C     float64 // amplitude, 10^LogC
	Gamma float64 // exponent (positive: P(d) = C·d^−Gamma)
	R2    float64 // coefficient of determination of the log–log fit
	N     int     // number of (degree, frequency) points fitted
}

func (p PowerLawFit) String() string {
	return fmt.Sprintf("P(d) = %.3g·d^%.3f  (log c = %.3f, R² = %.3f, n = %d)", p.C, -p.Gamma, p.LogC, p.R2, p.N)
}

// FitPowerLaw fits a power law to a degree histogram (hist[d] =
// frequency of degree d).  Degree 0 and zero-frequency degrees are
// skipped (their logarithms are undefined).  It returns an error if
// fewer than two points remain.
func FitPowerLaw(hist []int) (PowerLawFit, error) {
	var xs, ys []float64
	for d := 1; d < len(hist); d++ {
		if hist[d] > 0 {
			xs = append(xs, math.Log10(float64(d)))
			ys = append(ys, math.Log10(float64(hist[d])))
		}
	}
	if len(xs) < 2 {
		return PowerLawFit{}, fmt.Errorf("stats: power-law fit needs ≥ 2 distinct degrees, have %d", len(xs))
	}
	slope, intercept, r2, ok := fitLine(xs, ys)
	if !ok {
		return PowerLawFit{}, fmt.Errorf("stats: degenerate power-law fit (all degrees equal)")
	}
	return PowerLawFit{
		LogC:  intercept,
		C:     math.Pow(10, intercept),
		Gamma: -slope,
		R2:    r2,
		N:     len(xs),
	}, nil
}

// fitLine is the least-squares line y = intercept + slope·x through
// the points (xs[i], ys[i]), with its coefficient of determination
// R² = 1 − (rᵀr)/(yᵀy), y in deviations from its mean (1 when every y
// is equal).  ok is false when every x is equal, which leaves the
// slope undefined.
func fitLine(xs, ys []float64) (slope, intercept, r2 float64, ok bool) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0, 0, 0, false
	}
	slope = (n*sxy - sx*sy) / denom
	intercept = (sy - slope*sx) / n

	meanY := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		pred := intercept + slope*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 = 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return slope, intercept, r2, true
}

// ComponentInfo describes one connected component of a hypergraph.
type ComponentInfo struct {
	ID       int
	Vertices int
	Edges    int
}

// Components computes the connected components of the hypergraph under
// the alternating path relation (equivalently, of the bipartite graph
// B(H)).  It returns per-vertex and per-hyperedge component IDs and the
// component list sorted by decreasing vertex count (ties by edge count
// then ID).  Isolated vertices form their own components.
//
// The search runs on h's own incidence rows.  Roots are taken in B(H)'s
// node order — each unlabeled vertex by ID, then each hyperedge no
// vertex reached, which is an empty one — so the IDs equal those of a
// breadth-first labeling of B(H) without materializing it.
func Components(h *hypergraph.Hypergraph) (vComp, eComp []int32, comps []ComponentInfo) {
	nv, ne := h.NumVertices(), h.NumEdges()
	vComp = make([]int32, nv)
	eComp = make([]int32, ne)
	for v := range vComp {
		vComp[v] = -1
	}
	for f := range eComp {
		eComp[f] = -1
	}
	n := int32(0)
	var queue []int32
	for s := 0; s < nv; s++ {
		if vComp[s] >= 0 {
			continue
		}
		vComp[s] = n
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			for _, f := range h.Edges(int(queue[head])) {
				if eComp[f] >= 0 {
					continue
				}
				eComp[f] = n
				for _, w := range h.Vertices(int(f)) {
					if vComp[w] < 0 {
						vComp[w] = n
						queue = append(queue, w)
					}
				}
			}
		}
		n++
	}
	for f := range eComp {
		if eComp[f] < 0 {
			eComp[f] = n
			n++
		}
	}
	return vComp, eComp, componentList(vComp, eComp, int(n))
}

// componentList counts the members of each of the n labeled components
// and sorts the list by decreasing vertex count, then edge count, then
// ID.
func componentList(vComp, eComp []int32, n int) []ComponentInfo {
	comps := make([]ComponentInfo, n)
	for i := range comps {
		comps[i].ID = i
	}
	for _, c := range vComp {
		comps[c].Vertices++
	}
	for _, c := range eComp {
		comps[c].Edges++
	}
	sort.Slice(comps, func(i, j int) bool {
		if comps[i].Vertices != comps[j].Vertices {
			return comps[i].Vertices > comps[j].Vertices
		}
		if comps[i].Edges != comps[j].Edges {
			return comps[i].Edges > comps[j].Edges
		}
		return comps[i].ID < comps[j].ID
	})
	return comps
}

// StorageCosts quantifies the §1.2 space argument: the pins of the
// hypergraph versus the edge counts of the clique-expansion
// protein-interaction graph and the complex intersection graph.
type StorageCosts struct {
	HypergraphPins        int
	CliqueExpansionEdges  int
	StarExpansionEdges    int
	IntersectionEdges     int
	CliqueBlowupFactor    float64 // clique edges / pins
	IntersectionPerMember float64 // intersection edges / |F|
}

// ComputeStorageCosts materializes each representation and counts.
func ComputeStorageCosts(h *hypergraph.Hypergraph) StorageCosts {
	s := StorageCosts{HypergraphPins: h.NumPins()}
	s.CliqueExpansionEdges = graph.CliqueExpansion(h).NumEdges()
	s.StarExpansionEdges = graph.StarExpansion(h, nil).NumEdges()
	ig, _, _ := graph.IntersectionGraph(h)
	s.IntersectionEdges = ig.NumEdges()
	if s.HypergraphPins > 0 {
		s.CliqueBlowupFactor = float64(s.CliqueExpansionEdges) / float64(s.HypergraphPins)
	}
	if h.NumEdges() > 0 {
		s.IntersectionPerMember = float64(s.IntersectionEdges) / float64(h.NumEdges())
	}
	return s
}
