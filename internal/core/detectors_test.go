// Unit tests for the containment detections: the witness-filter
// detector of the peel (csr.Detector) and the paper's incremental
// overlap table (check.OverlapTable) must both implement the paper's
// containment rule, agree with each other, and agree with the
// independent detection in hypergraph.NonMaximalEdges and a
// brute-force subset check.  External test package so internal/check
// (which imports core) is usable.
package core_test

import (
	"testing"

	"hyperplex/internal/check"
	"hyperplex/internal/csr"
	"hyperplex/internal/dataset"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

// reduceInstances returns a deterministic mix of crafted corner cases
// (duplicates, nesting, a spanning edge, signature collisions) and
// random hypergraphs.
func reduceInstances(t *testing.T) []*hypergraph.Hypergraph {
	t.Helper()
	crafted := [][][]int32{
		{{0, 1}, {0, 1}, {0, 1, 2}, {3}},          // duplicates + nesting
		{{0, 1, 2, 3, 4}, {1, 2}, {2, 3}, {0, 4}}, // spanning edge over all others
		{{0}, {1}, {2}},                           // disjoint singletons
		// Signature collisions, where only the member count rules out
		// f0 ⊂ f1 although f1 holds f0's witnesses, its first two
		// members.  In the first, f0 = {0, 1, 2} and 66 ∈ f1 sets the
		// bit of 2; in the second, f0 = {1, 2, 64} and 0 ∈ f1 sets the
		// bit of 64.
		{{0, 1, 2}, {0, 1, 3, 66}, {2, 5}},
		{{1, 2, 64}, {0, 1, 2, 3}, {64, 4}},
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

// TestNonMaximalDetectorsAgree checks the detections of the
// containment rule against each other.  On the all-alive state of the
// crafted and random instances: the paper's overlap table, the
// witness-filter csr.Detector and the independent
// hypergraph.NonMaximalEdges.  On random partial snapshots over the
// sweep and Cellzome — dead vertices, and dead hyperedges at degree 0
// the way the peel retires them — every alive hyperedge is checked by
// csr.Detector and by brute force.  A second partial pass
// relabels the sweep's vertices v → 64·v: every member signature is
// then bit 0, so the signature filter passes every candidate and the
// member count decides.  csr.Detector owns the empty-hyperedge rule
// too, so every dead or empty hyperedge must read as dead to it; the
// other detections take d(f) > 0.
func TestNonMaximalDetectorsAgree(t *testing.T) {
	for i, h := range reduceInstances(t) {
		ne := h.NumEdges()
		tab := check.NewOverlapTable(h)
		cv := h.CSR()
		det := csr.NewDetector(cv)
		eDeg := make([]int32, ne)
		for f := range eDeg {
			eDeg[f] = int32(h.EdgeDegree(f))
		}
		vAlive := make([]bool, h.NumVertices())
		for v := range vAlive {
			vAlive[v] = true
		}
		want := hypergraph.NonMaximalEdges(h)
		snap := &csr.Snapshot{C: cv, VAlive: vAlive, EDeg: eDeg, Sig: csr.Signatures(cv)}
		for f := 0; f < ne; f++ {
			if eDeg[f] == 0 {
				if dead, _ := det.Dead(snap, int32(f)); !dead {
					t.Fatalf("instance %d %v: csr.Detector.Dead(%d) = false for an empty hyperedge", i, h, f)
				}
				continue
			}
			if got := tab.NonMaximal(f, eDeg); got != want[f] {
				t.Fatalf("instance %d %v: check.OverlapTable.NonMaximal(%d) = %t, want %t", i, h, f, got, want[f])
			}
			if got, _ := det.Dead(snap, int32(f)); got != want[f] {
				t.Fatalf("instance %d %v: csr.Detector.Dead(%d) = %t, want %t", i, h, f, got, want[f])
			}
		}
	}

	sweep := check.Instances(58, 0xC04E7)
	spread := make([]*hypergraph.Hypergraph, len(sweep))
	for i, h := range sweep {
		spread[i] = spreadIDs(t, h, 64)
	}
	t.Run("small IDs", func(t *testing.T) {
		checkPartialSnapshots(t, append(sweep, dataset.Cellzome().H), xrand.New(0x5A4D))
	})
	t.Run("IDs times 64", func(t *testing.T) {
		checkPartialSnapshots(t, spread, xrand.New(0x5A4E))
	})
}

// checkPartialSnapshots compares csr.Detector with bruteNonMaximal on
// six random partial snapshots per instance.
// It counts checks by d(f) class (1, 2, ≥3) and outcome, so the
// witness-only and member-count paths are both known to be reached
// with both answers.
func checkPartialSnapshots(t *testing.T, instances []*hypergraph.Hypergraph, rng *xrand.RNG) {
	var cover [3][2]int
	equalSets, deadOrEmpty := 0, 0
	for i, h := range instances {
		ne := h.NumEdges()
		cv := h.CSR()
		sig := csr.Signatures(cv)
		det := csr.NewDetector(cv)
		for trial := 0; trial < 6; trial++ {
			vAlive, eAlive, eDeg := randomSnapshot(h, rng, float64(trial)/10, float64(trial%2)*0.15)
			snap := &csr.Snapshot{C: cv, VAlive: vAlive, EDeg: eDeg, Sig: sig}
			for f := int32(0); int(f) < ne; f++ {
				df := eDeg[f]
				if !eAlive[f] || df == 0 {
					deadOrEmpty++
					if dead, _ := det.Dead(snap, f); !dead {
						t.Fatalf("instance %d trial %d: csr.Detector.Dead(%d) = false for a dead or empty hyperedge", i, trial, f)
					}
					continue
				}
				want, eq := bruteNonMaximal(h, vAlive, eAlive, eDeg, f)
				equalSets += eq
				if got, _ := det.Dead(snap, f); got != want {
					t.Fatalf("instance %d trial %d: csr.Detector.Dead(%d) = %t, want %t", i, trial, f, got, want)
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

// spreadIDs relabels every vertex v of h as by·v; the vertices in
// between are isolated.
func spreadIDs(t *testing.T, h *hypergraph.Hypergraph, by int32) *hypergraph.Hypergraph {
	t.Helper()
	edges := make([][]int32, h.NumEdges())
	for f := range edges {
		for _, v := range h.Vertices(f) {
			edges[f] = append(edges[f], by*v)
		}
	}
	nv := 0
	if n := h.NumVertices(); n > 0 {
		nv = int(by)*(n-1) + 1
	}
	out, err := hypergraph.FromEdgeSets(nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return out
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

// FuzzDetector checks csr.Detector against bruteNonMaximal on hypergraphs decoded by detectorInput, whose
// vertex IDs are spread past 64 so that member signatures collide.
func FuzzDetector(f *testing.F) {
	f.Add([]byte{})
	// f0 = {0, 1, 2} against f1 = {0, 1, 3, 66}: 66 sets the bit of 2.
	f.Add([]byte{2, 3, 0x00, 0x01, 0x02, 4, 0x00, 0x01, 0x03, 0x12, 2, 0x02, 0x05})
	// {0, 1, 2, 66} and {0, 1, 2, 130} become an equal-set pair once 66
	// and 130, which share the bit of 2, die.
	f.Add([]byte{1, 4, 0x00, 0x01, 0x02, 0x12, 4, 0x00, 0x01, 0x02, 0x22, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x04, 0, 0, 0, 0, 0, 0, 0, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, vAlive, eAlive, eDeg := detectorInput(t, data)
		c := h.CSR()
		det := csr.NewDetector(c)
		s := &csr.Snapshot{C: c, VAlive: vAlive, EDeg: eDeg, Sig: csr.Signatures(c)}
		for f := int32(0); int(f) < h.NumEdges(); f++ {
			want := true
			if eAlive[f] && eDeg[f] > 0 {
				want, _ = bruteNonMaximal(h, vAlive, eAlive, eDeg, f)
			}
			if got, _ := det.Dead(s, f); got != want {
				t.Fatalf("%v: csr.Detector.Dead(%d) = %t, want %t", h, f, got, want)
			}
		}
	})
}

// detectorInput decodes fuzz bytes into a hypergraph over 256 vertices
// and a partial snapshot of it.  The layout is one byte m (1 + m%8
// hyperedges), then per hyperedge a length byte n (n%6 members) and n
// member bytes b, read as vertex (b & 15) + 64·(b>>4 & 3), so member
// signatures use 16 bits and collide across the four pages of 64.
// Then one byte whose bit f kills hyperedge f, and bytes whose bit v%8
// of byte v/8 kills vertex v.  Missing bytes read as zero.
func detectorInput(t *testing.T, data []byte) (h *hypergraph.Hypergraph, vAlive, eAlive []bool, eDeg []int32) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	edges := make([][]int32, 1+next()%8)
	for f := range edges {
		for n := next() % 6; n > 0; n-- {
			b := next()
			edges[f] = append(edges[f], int32(b&15)+64*int32(b>>4&3))
		}
	}
	h, err := hypergraph.FromEdgeSets(256, edges)
	if err != nil {
		t.Fatal(err)
	}
	eDead := next()
	vAlive = make([]bool, h.NumVertices())
	var vDead byte
	for v := range vAlive {
		if v%8 == 0 {
			vDead = next()
		}
		vAlive[v] = vDead>>(v%8)&1 == 0
	}
	eAlive = make([]bool, h.NumEdges())
	eDeg = make([]int32, h.NumEdges())
	for f := range eAlive {
		eAlive[f] = eDead>>f&1 == 0
		if !eAlive[f] {
			continue
		}
		for _, v := range h.Vertices(f) {
			if vAlive[v] {
				eDeg[f]++
			}
		}
	}
	return h, vAlive, eAlive, eDeg
}
