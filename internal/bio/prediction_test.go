package bio

import (
	"testing"

	"hyperplex/internal/hypergraph"
)

func TestComplexRecovery(t *testing.T) {
	h := smallH(t) // c1={a,b,c}, c2={b,c,d}, c3={d,e}
	set := func(names ...string) []bool {
		pred := make([]bool, h.NumVertices())
		for _, name := range names {
			v, _ := h.VertexID(name)
			pred[v] = true
		}
		return pred
	}
	for _, tc := range []struct {
		name      string
		preds     [][]bool
		per       map[string]float64 // the best Jaccard of each complex
		recovered int                // complexes at J ≥ 0.5
	}{
		{"exact", [][]bool{set("a", "b", "c")},
			map[string]float64{"c1": 1, "c2": 0.5, "c3": 0}, 2},
		// Against c1 or c2: |∩| = 2, |∪| = 4; against c3: 1 of 4.
		{"partial", [][]bool{set("b", "c", "e")},
			map[string]float64{"c1": 0.5, "c2": 0.5, "c3": 0.25}, 2},
		{"empty", [][]bool{set()},
			map[string]float64{"c1": 0, "c2": 0, "c3": 0}, 0},
		// One perfect prediction for c3, nothing for the others.
		{"one complex", [][]bool{set("d", "e")},
			map[string]float64{"c1": 0, "c2": 0.25, "c3": 1}, 1},
		{"no predictions", nil,
			map[string]float64{"c1": 0, "c2": 0, "c3": 0}, 0},
		// Each complex takes its best over the family.
		{"family", [][]bool{set("b", "c", "e"), set("d", "e")},
			map[string]float64{"c1": 0.5, "c2": 0.5, "c3": 1}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			per, recovered := ComplexRecovery(h, tc.preds, 0.5)
			for name, want := range tc.per {
				f, _ := h.EdgeID(name)
				if per[f] != want {
					t.Errorf("per[%s] = %v, want %v", name, per[f], want)
				}
			}
			if recovered != tc.recovered {
				t.Errorf("recovered = %d, want %d", recovered, tc.recovered)
			}
		})
	}

	// A singleton complex predicted exactly clears even a 0.99
	// threshold.
	hg := hypergraph.NewBuilder()
	hg.AddEdge("s", "only")
	h2 := hg.MustBuild()
	if _, rec := ComplexRecovery(h2, [][]bool{{true}}, 0.99); rec != 1 {
		t.Errorf("exact singleton not recovered: %d", rec)
	}
}
