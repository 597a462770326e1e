// Unit tests for the containment detections: the reduction layer's
// incremental overlap table and snapshot scratch checker (reduce.go)
// and the witness-filter detector the flat-array engines share
// (csr.Detector) must all implement the paper's containment rule, agree
// with each other, and agree with the independent detection in
// hypergraph.NonMaximalEdges and a brute-force subset check.  External
// test package so the sweep in internal/check (which imports core) is
// usable; export_test.go hands it the unexported layer.
package core_test

import (
	"slices"
	"testing"

	"hyperplex/internal/check"
	"hyperplex/internal/core"
	"hyperplex/internal/csr"
	"hyperplex/internal/dataset"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

func noCheckpoint(int) {}

// reduceInstances returns a deterministic mix of crafted corner cases
// (duplicates, nesting, a spanning edge) and random hypergraphs.
func reduceInstances(t *testing.T) []*hypergraph.Hypergraph {
	t.Helper()
	crafted := [][][]int32{
		{{0, 1}, {0, 1}, {0, 1, 2}, {3}},          // duplicates + nesting
		{{0, 1, 2, 3, 4}, {1, 2}, {2, 3}, {0, 4}}, // spanning edge over all others
		{{0}, {1}, {2}},                           // disjoint singletons
	}
	var out []*hypergraph.Hypergraph
	for _, edges := range crafted {
		nv := int32(0)
		for _, e := range edges {
			for _, v := range e {
				if v+1 > nv {
					nv = v + 1
				}
			}
		}
		h, err := hypergraph.FromEdgeSets(int(nv), edges)
		if err != nil {
			t.Fatalf("crafted instance: %v", err)
		}
		out = append(out, h)
	}
	rng := xrand.New(0x5ED0CE)
	for i := 0; i < 12; i++ {
		out = append(out, gen.RandomHypergraph(3+rng.Intn(40), 1+rng.Intn(30), 1+rng.Intn(6), rng))
	}
	return out
}

// TestOverlapTableFill checks the freshly built table against the
// merge-based hypergraph.Overlap for every hyperedge pair.
func TestOverlapTableFill(t *testing.T) {
	for i, h := range reduceInstances(t) {
		var tab core.OverlapTable
		tab.Fill(h, noCheckpoint)
		ne := h.NumEdges()
		for f := 0; f < ne; f++ {
			for g := 0; g < ne; g++ {
				if f == g {
					continue
				}
				if got, want := tab.Overlap(f, g), h.Overlap(f, g); got != want {
					t.Fatalf("instance %d %v: Overlap(%d, %d) = %d, want %d", i, h, f, g, got, want)
				}
			}
		}
	}
}

// bruteOverlap counts |f ∩ g| over the alive vertices directly.
func bruteOverlap(h *hypergraph.Hypergraph, vAlive []bool, f, g int) int {
	inF := make(map[int32]bool)
	for _, v := range h.Vertices(f) {
		if vAlive[v] {
			inF[v] = true
		}
	}
	n := 0
	for _, v := range h.Vertices(g) {
		if vAlive[v] && inF[v] {
			n++
		}
	}
	return n
}

// TestOverlapTableIncremental deletes vertices one at a time the way
// the sequential peeler does (ShrinkPairwise on the live incident
// edges, DropEdge on emptied ones) and checks the table against brute
// force after every deletion.
func TestOverlapTableIncremental(t *testing.T) {
	for i, h := range reduceInstances(t) {
		nv, ne := h.NumVertices(), h.NumEdges()
		var tab core.OverlapTable
		tab.Fill(h, noCheckpoint)
		vAlive := make([]bool, nv)
		eAlive := make([]bool, ne)
		eDeg := make([]int, ne)
		for v := range vAlive {
			vAlive[v] = true
		}
		for f := range eAlive {
			eAlive[f] = true
			eDeg[f] = h.EdgeDegree(f)
		}
		rng := xrand.New(uint64(0xD0D0 + i))
		for _, v := range rng.Perm(nv) {
			vAlive[v] = false
			var live []int32
			for _, f := range h.Edges(v) {
				if eAlive[f] {
					live = append(live, f)
					eDeg[f]--
				}
			}
			tab.ShrinkPairwise(live)
			for _, f := range live {
				if eDeg[f] == 0 {
					eAlive[f] = false
					tab.DropEdge(int(f))
				}
			}
			for f := 0; f < ne; f++ {
				if !eAlive[f] {
					continue
				}
				for g := f + 1; g < ne; g++ {
					if !eAlive[g] {
						continue
					}
					want := bruteOverlap(h, vAlive, f, g)
					if got := tab.Overlap(f, g); got != want {
						t.Fatalf("instance %d %v after deleting vertex %d: Overlap(%d, %d) = %d, want %d",
							i, h, v, f, g, got, want)
					}
					if got := tab.Overlap(g, f); got != want {
						t.Fatalf("instance %d %v after deleting vertex %d: Overlap(%d, %d) = %d, want %d (asymmetry)",
							i, h, v, g, f, got, want)
					}
				}
			}
		}
	}
}

// TestNonMaximalDetectorsAgree checks the detections of the
// containment rule against each other.  On the all-alive state of the
// crafted and random instances: the incremental table, the snapshot
// scratch checker, the witness-filter csr.Detector and the independent
// hypergraph.NonMaximalEdges.  On random partial snapshots over the
// sweep and Cellzome — dead vertices, and dead hyperedges at degree 0
// the way the engines retire them — every alive hyperedge is checked by
// csr.Detector over the CSR's own rows and over the peeler's presorted
// witness rows, by the snapshot scratch checker, and by brute force.
// csr.Detector owns the empty-hyperedge rule too, so every dead or
// empty hyperedge must read as dead to it; the other detections take
// d(f) > 0.
func TestNonMaximalDetectorsAgree(t *testing.T) {
	alive := func(int32) bool { return true }
	for i, h := range reduceInstances(t) {
		ne := h.NumEdges()
		var tab core.OverlapTable
		tab.Fill(h, noCheckpoint)
		scratch := core.NewNonMaxScratch(ne)
		cv := csr.FromH(h)
		det := csr.NewDetector(cv)
		eDeg := make([]int32, ne)
		for f := range eDeg {
			eDeg[f] = int32(h.EdgeDegree(f))
		}
		vAlive := make([]bool, h.NumVertices())
		for v := range vAlive {
			vAlive[v] = true
		}
		snap := &csr.Snapshot{C: cv, Rows: cv.EAdj, VAlive: vAlive, EDeg: eDeg}
		eDegAt := func(g int32) int32 { return eDeg[g] }
		want := hypergraph.NonMaximalEdges(h)
		for f := 0; f < ne; f++ {
			if eDeg[f] == 0 {
				if dead, _ := det.Dead(snap, int32(f)); !dead {
					t.Fatalf("instance %d %v: csr.Detector.Dead(%d) = false for an empty hyperedge", i, h, f)
				}
				continue
			}
			if got := tab.NonMaximal(f, eDeg); got != want[f] {
				t.Fatalf("instance %d %v: overlapTable.NonMaximal(%d) = %t, want %t", i, h, f, got, want[f])
			}
			if got := scratch.NonMaximal(cv, int32(f), eDeg[f], alive, alive, eDegAt); got != want[f] {
				t.Fatalf("instance %d %v: nonMaxScratch.NonMaximal(%d) = %t, want %t", i, h, f, got, want[f])
			}
			if got, _ := det.Dead(snap, int32(f)); got != want[f] {
				t.Fatalf("instance %d %v: csr.Detector.Dead(%d) = %t, want %t", i, h, f, got, want[f])
			}
		}
	}

	// Partial snapshots.  cover counts checks by d(f) class (1, 2, ≥3)
	// and outcome, so the witness-only and member-count paths are both
	// known to be reached with both answers.
	var cover [3][2]int
	equalSets, deadOrEmpty := 0, 0
	rng := xrand.New(0x5A4D)
	instances := append(check.Instances(58, 0xC04E7), dataset.Cellzome().H)
	for i, h := range instances {
		ne := h.NumEdges()
		cv := csr.FromH(h)
		rawDet, sortedDet := csr.NewDetector(cv), csr.NewDetector(cv)
		scratch := core.NewNonMaxScratch(ne)
		presorted := witnessRows(cv)
		for trial := 0; trial < 6; trial++ {
			vAlive, eAlive, eDeg := randomSnapshot(h, rng, float64(trial)/10, float64(trial%2)*0.15)
			raw := &csr.Snapshot{C: cv, Rows: cv.EAdj, VAlive: vAlive, EDeg: eDeg}
			sorted := &csr.Snapshot{C: cv, Rows: presorted, VAlive: vAlive, EDeg: eDeg}
			vAliveAt := func(v int32) bool { return vAlive[v] }
			eAliveAt := func(g int32) bool { return eAlive[g] }
			eDegAt := func(g int32) int32 { return eDeg[g] }
			for f := int32(0); int(f) < ne; f++ {
				df := eDeg[f]
				if !eAlive[f] || df == 0 {
					deadOrEmpty++
					rawDead, _ := rawDet.Dead(raw, f)
					sortedDead, _ := sortedDet.Dead(sorted, f)
					if !rawDead || !sortedDead {
						t.Fatalf("instance %d trial %d: csr.Detector.Dead(%d) = %t over EAdj rows, %t over presorted rows for a dead or empty hyperedge", i, trial, f, rawDead, sortedDead)
					}
					continue
				}
				want, eq := bruteNonMaximal(h, vAlive, eAlive, eDeg, f)
				equalSets += eq
				if got, _ := rawDet.Dead(raw, f); got != want {
					t.Fatalf("instance %d trial %d: csr.Detector.Dead(%d) over EAdj rows = %t, want %t", i, trial, f, got, want)
				}
				if got, _ := sortedDet.Dead(sorted, f); got != want {
					t.Fatalf("instance %d trial %d: csr.Detector.Dead(%d) over presorted rows = %t, want %t", i, trial, f, got, want)
				}
				if got := scratch.NonMaximal(cv, f, df, vAliveAt, eAliveAt, eDegAt); got != want {
					t.Fatalf("instance %d trial %d: nonMaxScratch.NonMaximal(%d) = %t, want %t", i, trial, f, got, want)
				}
				class, outcome := min(int(df), 3)-1, 0
				if want {
					outcome = 1
				}
				cover[class][outcome]++
			}
		}
	}
	t.Logf("checks by d(f) class 1, 2, ≥3 as [maximal non-maximal]: %v; equal-set pairs: %d; dead or empty: %d", cover, equalSets, deadOrEmpty)
	for class, name := range []string{"d(f) = 1", "d(f) = 2", "d(f) ≥ 3"} {
		if cover[class][0] == 0 || cover[class][1] == 0 {
			t.Errorf("%s: %d maximal and %d non-maximal checks; the snapshots must reach both answers", name, cover[class][0], cover[class][1])
		}
	}
	if equalSets == 0 {
		t.Error("no snapshot held two alive hyperedges with equal alive member sets")
	}
	if deadOrEmpty == 0 {
		t.Error("no snapshot held a dead or empty hyperedge")
	}
}

// witnessRows returns c's edge rows presorted the way the CSR peeler
// presorts its witness rows: each row stably sorted by ascending static
// vertex degree.
func witnessRows(c *csr.CSR) []int32 {
	rows := slices.Clone(c.EAdj)
	for f := int32(0); int(f) < c.NumEdges(); f++ {
		slices.SortStableFunc(rows[c.EOff[f]:c.EOff[f+1]], func(a, b int32) int {
			return int(c.VertexDegree(a) - c.VertexDegree(b))
		})
	}
	return rows
}

// randomSnapshot kills each vertex with probability pv and each
// hyperedge with probability pe, and returns the alive flags with the
// degrees the engines keep: an alive hyperedge's alive member count,
// and 0 for a dead one.
func randomSnapshot(h *hypergraph.Hypergraph, rng *xrand.RNG, pv, pe float64) (vAlive, eAlive []bool, eDeg []int32) {
	vAlive = make([]bool, h.NumVertices())
	for v := range vAlive {
		vAlive[v] = rng.Float64() >= pv
	}
	eAlive = make([]bool, h.NumEdges())
	eDeg = make([]int32, h.NumEdges())
	for f := range eAlive {
		eAlive[f] = rng.Float64() >= pe
		if !eAlive[f] {
			continue
		}
		for _, v := range h.Vertices(f) {
			if vAlive[v] {
				eDeg[f]++
			}
		}
	}
	return vAlive, eAlive, eDeg
}

// bruteNonMaximal applies the containment rule by definition: some
// alive g ≠ f holds every alive member of f, with d(g) > d(f), or
// d(g) = d(f) and g < f.  It also counts the alive hyperedges whose
// alive member set equals f's.
func bruteNonMaximal(h *hypergraph.Hypergraph, vAlive, eAlive []bool, eDeg []int32, f int32) (nonMax bool, equal int) {
	for g := int32(0); int(g) < h.NumEdges(); g++ {
		if g == f || !eAlive[g] || eDeg[g] < eDeg[f] {
			continue
		}
		if bruteOverlap(h, vAlive, int(f), int(g)) != int(eDeg[f]) {
			continue
		}
		if eDeg[g] == eDeg[f] {
			equal++
		}
		if eDeg[g] > eDeg[f] || g < f {
			nonMax = true
		}
	}
	return nonMax, equal
}

// TestNonMaxScratchStampWraparound pins the stamp-counter wraparound:
// checks on either side of the int32 rollover must not cross-talk
// through stale stamps.
func TestNonMaxScratchStampWraparound(t *testing.T) {
	h, err := hypergraph.FromEdgeSets(3, [][]int32{{0, 1}, {0, 1, 2}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	alive := func(int32) bool { return true }
	eDegAt := func(g int32) int32 { return int32(h.EdgeDegree(int(g))) }
	scratch := core.NewNonMaxScratch(h.NumEdges())
	cv := csr.FromH(h)
	scratch.SetSeq(1<<31 - 3)
	for trial := 0; trial < 6; trial++ {
		if !scratch.NonMaximal(cv, 0, 2, alive, alive, eDegAt) {
			t.Fatalf("trial %d: edge 0 ⊂ edge 1 not detected", trial)
		}
		if scratch.NonMaximal(cv, 1, 3, alive, alive, eDegAt) {
			t.Fatalf("trial %d: maximal edge 1 flagged", trial)
		}
	}
}
