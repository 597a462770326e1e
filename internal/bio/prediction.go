package bio

import (
	"hyperplex/internal/hypergraph"
)

// §3 of the paper warns that determining putative protein complexes
// from the cores of protein-interaction graphs "is error-prone since
// the proteins in a complex might have only few interaction partners".
// This file provides the metric that experiment X6 uses to quantify
// that warning: how well a predicted protein set matches the true
// complexes of the hypergraph.

// ComplexRecovery reports, for every ground-truth complex, the best
// Jaccard overlap achievable against a family of predicted sets, and
// the fraction of complexes recovered above the threshold.  Used to
// compare hypergraph-core complexes (exact by construction) with
// graph-core "complexes".
func ComplexRecovery(h *hypergraph.Hypergraph, predictions [][]bool, threshold float64) (perComplex []float64, recovered int) {
	perComplex = make([]float64, h.NumEdges())
	for _, pred := range predictions {
		size := 0
		for _, in := range pred {
			if in {
				size++
			}
		}
		if size == 0 {
			continue
		}
		for f := 0; f < h.NumEdges(); f++ {
			inter := 0
			for _, v := range h.Vertices(f) {
				if pred[v] {
					inter++
				}
			}
			union := size + h.EdgeDegree(f) - inter
			if union == 0 {
				continue
			}
			if j := float64(inter) / float64(union); j > perComplex[f] {
				perComplex[f] = j
			}
		}
	}
	for _, j := range perComplex {
		if j >= threshold {
			recovered++
		}
	}
	return perComplex, recovered
}
