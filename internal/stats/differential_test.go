// Differential tests validating the alternating-path metric against a
// naive BFS oracle.  This file is an external test package because
// check imports stats.
package stats_test

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"hyperplex/internal/check"
	"hyperplex/internal/dataset"
	"hyperplex/internal/graph"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/stats"
	"hyperplex/internal/xrand"
)

// comparePair requires ShortestPath and the oracle to agree on
// reachability and distance, and any returned path to pass ValidPath
// with the claimed length.
func comparePair(t *testing.T, label string, h *hypergraph.Hypergraph, from, to int) {
	t.Helper()
	p, ok := stats.ShortestPath(h, from, to)
	wantDist, wantOK := check.ShortestPathNaive(h, from, to)
	if ok != wantOK {
		t.Fatalf("%s: ShortestPath(%d,%d) reachable=%t, oracle says %t", label, from, to, ok, wantOK)
	}
	if !ok {
		return
	}
	if got := len(p.Edges); got != wantDist {
		t.Fatalf("%s: ShortestPath(%d,%d) length %d, oracle says %d", label, from, to, got, wantDist)
	}
	if err := check.ValidPath(h, from, to, p); err != nil {
		t.Fatalf("%s: path %d→%d: %v", label, from, to, err)
	}
}

// TestDifferentialAlternatingPath samples vertex pairs on every sweep
// instance and compares the production BFS against the oracle, then
// does the same on Cellzome.
func TestDifferentialAlternatingPath(t *testing.T) {
	rng := xrand.New(0x9A7B)
	for i, h := range check.Instances(58, 0x9A7A) {
		nv := h.NumVertices()
		if nv == 0 {
			continue
		}
		for s := 0; s < 12; s++ {
			from, to := rng.Intn(nv), rng.Intn(nv)
			comparePair(t, labelOf(i, h), h, from, to)
		}
		// Always include the self-pair and the extreme-ID pair.
		comparePair(t, labelOf(i, h), h, 0, 0)
		comparePair(t, labelOf(i, h), h, 0, nv-1)
	}

	h := dataset.Cellzome().H
	nv := h.NumVertices()
	for s := 0; s < 40; s++ {
		comparePair(t, "Cellzome", h, rng.Intn(nv), rng.Intn(nv))
	}
}

// TestPropertyShortestPathMatchesDistance requires ShortestPath on
// random small hypergraphs to agree with the oracle on reachability
// and distance, and every returned path to pass ValidPath.
func TestPropertyShortestPathMatchesDistance(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := xrand.New(seed)
		nv := 4 + rng.Intn(15)
		ne := 2 + rng.Intn(12)
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
		comparePair(t, fmt.Sprintf("seed %#x", seed), h, rng.Intn(nv), rng.Intn(nv))
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func labelOf(i int, h *hypergraph.Hypergraph) string {
	return fmt.Sprintf("instance %d %v", i, h)
}

// componentsBipartite is the B(H) reference for stats.Components:
// breadth-first labels of the materialized bipartite graph, counted and
// sorted by decreasing vertex count, then edge count, then ID.
func componentsBipartite(h *hypergraph.Hypergraph) (vComp, eComp []int32, comps []stats.ComponentInfo) {
	comp, n := graph.Bipartite(h).Components()
	vComp, eComp = comp[:h.NumVertices()], comp[h.NumVertices():]
	comps = make([]stats.ComponentInfo, n)
	for i := range comps {
		comps[i].ID = i
	}
	for _, c := range vComp {
		comps[c].Vertices++
	}
	for _, c := range eComp {
		comps[c].Edges++
	}
	slices.SortFunc(comps, func(a, b stats.ComponentInfo) int {
		return cmp.Or(cmp.Compare(b.Vertices, a.Vertices), cmp.Compare(b.Edges, a.Edges), cmp.Compare(a.ID, b.ID))
	})
	return vComp, eComp, comps
}

// TestDifferentialComponentsBipartite requires Components, which
// searches the incidence rows, and ComponentsUF to return exactly the
// labels and component list of the B(H) reference on the sweep,
// Cellzome and the 20000-protein proteome.
func TestDifferentialComponentsBipartite(t *testing.T) {
	hs := append(check.Instances(60, 0xC0C0), dataset.Cellzome().H, dataset.SyntheticProteome(20000, 3000, 1))
	for i, h := range hs {
		wantV, wantE, wantC := componentsBipartite(h)
		for _, impl := range []struct {
			name string
			fn   func(*hypergraph.Hypergraph) ([]int32, []int32, []stats.ComponentInfo)
		}{{"Components", stats.Components}, {"ComponentsUF", stats.ComponentsUF}} {
			v, e, c := impl.fn(h)
			if !slices.Equal(v, wantV) || !slices.Equal(e, wantE) || !slices.Equal(c, wantC) {
				t.Fatalf("instance %d (%v): %s differs from the B(H) reference", i, h, impl.name)
			}
		}
	}
}

// TestDifferentialSmallWorld requires SmallWorldStats to equal the
// per-source BFS oracle field for field, on every sweep instance and on
// Cellzome, at every worker count.
func TestDifferentialSmallWorld(t *testing.T) {
	hs := append(check.Instances(60, 0x5A11), dataset.Cellzome().H)
	for i, h := range hs {
		want := check.SmallWorldNaive(h)
		for _, w := range []int{1, 2, 3, 8} {
			if got := stats.SmallWorldStats(h, w); got != want {
				t.Fatalf("%s, %d workers: SmallWorldStats = %+v, oracle %+v", labelOf(i, h), w, got, want)
			}
		}
	}
}

// TestSmallWorldProteomePin pins the exact small-world numbers of X5's
// 20000-protein proteome: every one of its 199,990,000 pairs is
// connected.
func TestSmallWorldProteomePin(t *testing.T) {
	if testing.Short() {
		t.Skip("all-pairs distances over 20000 proteins")
	}
	h := dataset.SyntheticProteome(20000, 3000, 0x42A1)
	want := stats.SmallWorld{Diameter: 5, AvgPathLength: 2.9427923246162306, Pairs: 199_990_000, Sources: 20000}
	if got := stats.SmallWorldStats(h, 0); got != want {
		t.Fatalf("SmallWorldStats = %+v, want %+v", got, want)
	}
}
