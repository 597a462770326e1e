// Unit tests for the containment detections: the witness-filter
// detector of the peel (csr.Detector) and the paper's incremental
// overlap table (check.OverlapTable) must both implement the paper's
// containment rule, agree with each other, and agree with a
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
// (duplicates, nesting, a spanning edge, member counts) and random
// hypergraphs.
func reduceInstances(t *testing.T) []*hypergraph.Hypergraph {
	t.Helper()
	crafted := [][][]int32{
		{{0, 1}, {0, 1}, {0, 1, 2}, {3}},          // duplicates + nesting
		{{0, 1, 2, 3, 4}, {1, 2}, {2, 3}, {0, 4}}, // spanning edge over all others
		{{0}, {1}, {2}},                           // disjoint singletons
		// f1 holds f0's witnesses, its first and last members, and only
		// the member count rules out f0 ⊂ f1: f1 misses f0's middle
		// member, 1 in the first and 2 in the second.
		{{0, 1, 2}, {0, 2, 3, 65}, {2, 5}},
		{{1, 2, 64}, {1, 3, 64, 66}, {64, 4}},
		// f1 holds f0's first two members but not its last, so the
		// witness filter rules f1 out.
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
// crafted and random instances: the paper's overlap table and the
// witness-filter csr.Detector against bruteNonMaximal, whose lower-ID
// tie-break keeps one copy of the crafted duplicates.  On random
// partial snapshots over the sweep and Cellzome — dead vertices, and
// dead hyperedges at degree 0 the way the peel retires them — every
// alive hyperedge is checked by csr.Detector and by brute force, also
// along monotone runs from each snapshot, where certificates answer
// tests.  A second partial pass relabels the sweep's vertices v → 64·v,
// isolating the vertices in between, under a second seed: more member
// counts, over sparse vertex IDs.  csr.Detector owns the
// empty-hyperedge rule too, so every dead or empty hyperedge must read
// as dead to it; the other detections take d(f) > 0.
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
		eAlive := make([]bool, ne)
		for f := range eAlive {
			eAlive[f] = true
		}
		snap := &csr.Snapshot{C: cv, VAlive: vAlive, EDeg: eDeg}
		for f := 0; f < ne; f++ {
			if eDeg[f] == 0 {
				if dead, _ := det.Dead(snap, int32(f)); !dead {
					t.Fatalf("instance %d %v: csr.Detector.Dead(%d) = false for an empty hyperedge", i, h, f)
				}
				continue
			}
			want, _ := bruteNonMaximal(h, vAlive, eAlive, eDeg, int32(f))
			if got := tab.NonMaximal(f, eDeg); got != want {
				t.Fatalf("instance %d %v: check.OverlapTable.NonMaximal(%d) = %t, want %t", i, h, f, got, want)
			}
			if got, _ := det.Dead(snap, int32(f)); got != want {
				t.Fatalf("instance %d %v: csr.Detector.Dead(%d) = %t, want %t", i, h, f, got, want)
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
// six random partial snapshots per instance.  The snapshots are
// unrelated, so the detector forgets its certificates before each.
// From each one a monotone arm then kills more vertices and hyperedges
// over four steps (killMore) and re-tests every hyperedge after each,
// with the same detector and no Forget, as a peel reuses it, so
// certificates answer some tests and lapse in others.  It counts
// checks by d(f) class (1, 2, ≥3) and outcome, so the witness-only and
// member-count paths are both known to be reached with both answers,
// and the certified verdicts, and the non-maximal verdicts on a
// hyperedge certified earlier, so both sides of a certificate are
// known to be reached.
func checkPartialSnapshots(t *testing.T, instances []*hypergraph.Hypergraph, rng *xrand.RNG) {
	var cover [3][2]int
	equalSets, deadOrEmpty, certified, lapsed := 0, 0, 0, 0
	kills := xrand.New(0xD1E5)
	for i, h := range instances {
		ne := h.NumEdges()
		cv := h.CSR()
		det := csr.NewDetector(cv)
		for trial := 0; trial < 6; trial++ {
			vAlive, eAlive, eDeg := randomSnapshot(h, rng, float64(trial)/10, float64(trial%2)*0.15)
			snap := &csr.Snapshot{C: cv, VAlive: vAlive, EDeg: eDeg}
			det.Forget()
			wasCertified := make([]bool, ne)
			for step := 0; step < 5; step++ {
				if step > 0 {
					killMore(h, kills, vAlive, eAlive, eDeg, 0.1, 0.05)
				}
				for f := int32(0); int(f) < ne; f++ {
					df := eDeg[f]
					if !eAlive[f] || df == 0 {
						deadOrEmpty++
						if dead, _ := det.Dead(snap, f); !dead {
							t.Fatalf("instance %d trial %d step %d: csr.Detector.Dead(%d) = false for a dead or empty hyperedge", i, trial, step, f)
						}
						continue
					}
					want, eq := bruteNonMaximal(h, vAlive, eAlive, eDeg, f)
					equalSets += eq
					before := det.Certified()
					if got, _ := det.Dead(snap, f); got != want {
						t.Fatalf("instance %d trial %d step %d: csr.Detector.Dead(%d) = %t, want %t", i, trial, step, f, got, want)
					}
					switch {
					case det.Certified() > before:
						certified++
						wasCertified[f] = true
					case want && wasCertified[f]:
						lapsed++
					}
					class, outcome := min(int(df), 3)-1, 0
					if want {
						outcome = 1
					}
					cover[class][outcome]++
				}
			}
		}
	}
	t.Logf("checks by d(f) class 1, 2, ≥3 as [maximal non-maximal]: %v; equal-set pairs: %d; dead or empty: %d; certified: %d; non-maximal after a certificate: %d", cover, equalSets, deadOrEmpty, certified, lapsed)
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
	if certified == 0 {
		t.Error("no verdict was answered by a certificate")
	}
	if lapsed == 0 {
		t.Error("no hyperedge was found non-maximal after a certificate")
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
	for f := range eAlive {
		eAlive[f] = rng.Float64() >= pe
	}
	eDeg = make([]int32, h.NumEdges())
	recount(h, vAlive, eAlive, eDeg)
	return vAlive, eAlive, eDeg
}

// killMore kills each alive vertex with probability pv and each alive
// hyperedge with probability pe, and recounts the degrees as
// randomSnapshot gives them: the next state of a monotone run, in which
// vertices and hyperedges only die.
func killMore(h *hypergraph.Hypergraph, rng *xrand.RNG, vAlive, eAlive []bool, eDeg []int32, pv, pe float64) {
	for v, alive := range vAlive {
		vAlive[v] = alive && rng.Float64() >= pv
	}
	for f, alive := range eAlive {
		eAlive[f] = alive && rng.Float64() >= pe
	}
	recount(h, vAlive, eAlive, eDeg)
}

// recount sets every alive hyperedge's degree to its alive member
// count, and every dead one's to 0.
func recount(h *hypergraph.Hypergraph, vAlive, eAlive []bool, eDeg []int32) {
	for f, alive := range eAlive {
		eDeg[f] = 0
		if !alive {
			continue
		}
		for _, v := range h.Vertices(f) {
			if vAlive[v] {
				eDeg[f]++
			}
		}
	}
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

// FuzzDetector checks csr.Detector against bruteNonMaximal on
// hypergraphs and partial snapshots decoded by detectorInput, whose
// vertex IDs are spread past 64.  A second pass then kills one vertex
// or hyperedge per byte of the input's tail and re-tests every
// hyperedge after each kill with the same detector and no Forget, so
// certificates answer tests and lapse.
func FuzzDetector(f *testing.F) {
	f.Add([]byte{})
	// f0 = {0, 1, 2} against f1 = {0, 1, 3, 66}, which misses f0's last
	// member.
	f.Add([]byte{2, 3, 0x00, 0x01, 0x02, 4, 0x00, 0x01, 0x03, 0x12, 2, 0x02, 0x05})
	// {0, 1, 2, 66} and {0, 1, 2, 130} become an equal-set pair once 66
	// and 130 die.
	f.Add([]byte{1, 4, 0x00, 0x01, 0x02, 0x12, 4, 0x00, 0x01, 0x02, 0x22, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x04, 0, 0, 0, 0, 0, 0, 0, 0x04})
	// The first alive member is a hub.  f0 = {0, 5, 9} lies in
	// f5 = {0, 5, 9, 10}; vertex 0 is in all six hyperedges and 9, the
	// last member, in two, so 9's row is the one scanned.
	f.Add([]byte{5, 3, 0x00, 0x05, 0x09, 2, 0x00, 0x01, 2, 0x00, 0x02, 2, 0x00, 0x03, 2, 0x00, 0x04, 4, 0x00, 0x05, 0x09, 0x0A})
	// The same with 9 dead: f0's last alive member is 5, and f0 = {0, 5}
	// is decided by its witnesses.
	f.Add([]byte{5, 3, 0x00, 0x05, 0x09, 2, 0x00, 0x01, 2, 0x00, 0x02, 2, 0x00, 0x03, 2, 0x00, 0x04, 4, 0x00, 0x05, 0x09, 0x0A, 0, 0, 0x02})
	// A hub first and a member count in the middle: f4 = {0, 2, 3, 65}
	// holds f0 = {0, 1, 2}'s witnesses but not 1, over the hub 0's
	// hyperedges {0, 4}, {0, 5} and {0, 6}.
	f.Add([]byte{4, 3, 0x00, 0x01, 0x02, 2, 0x00, 0x04, 2, 0x00, 0x05, 2, 0x00, 0x06, 4, 0x00, 0x02, 0x03, 0x11})
	// Kills in the tail, past the 33 bytes of the snapshot.  A blocked
	// pair: f1 = {0, 2, 3} holds f0 = {0, 1, 2}'s witnesses but not 1,
	// so f0 gets no certificate, and once 1 dies f1 contains it.
	f.Add(append(append([]byte{1, 3, 0x00, 0x01, 0x02, 3, 0x00, 0x02, 0x03}, make([]byte, 33)...), 0x01))
	// A lapsing certificate: f1 = {0, 2} blocks f0 = {0, 1, 2}'s
	// witnesses until f1 dies, then f0 is certified with 0 and 2; once
	// 2 dies, f2 = {0, 1, 3} contains f0.
	f.Add(append(append([]byte{2, 3, 0x00, 0x01, 0x02, 2, 0x00, 0x02, 3, 0x00, 0x01, 0x03}, make([]byte, 33)...), 0x81, 0x02))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, vAlive, eAlive, eDeg, kills := detectorInput(t, data)
		c := h.CSR()
		det := csr.NewDetector(c)
		s := &csr.Snapshot{C: c, VAlive: vAlive, EDeg: eDeg}
		for step := 0; step <= len(kills); step++ {
			if step > 0 {
				if b := kills[step-1]; b&0x80 == 0 {
					vAlive[memberVertex(b)] = false
				} else if g := int(b & 7); g < len(eAlive) {
					eAlive[g] = false
				}
				recount(h, vAlive, eAlive, eDeg)
			}
			for f := int32(0); int(f) < h.NumEdges(); f++ {
				want := true
				if eAlive[f] && eDeg[f] > 0 {
					want, _ = bruteNonMaximal(h, vAlive, eAlive, eDeg, f)
				}
				if got, _ := det.Dead(s, f); got != want {
					t.Fatalf("%v after %d kills: csr.Detector.Dead(%d) = %t, want %t", h, step, f, got, want)
				}
			}
		}
	})
}

// detectorInput decodes fuzz bytes into a hypergraph over 256 vertices,
// a partial snapshot of it and the kills of a monotone run.  The layout
// is one byte m (1 + m%8 hyperedges), then per hyperedge a length byte
// n (n%6 members) and n member bytes, read by memberVertex.  Then one
// byte whose bit f kills hyperedge f, and 32 bytes whose bit v%8 of
// byte v/8 kills vertex v.  Missing bytes read as zero.  What follows
// is the tail of kills: a byte b kills hyperedge b & 7 when its high
// bit is set, and vertex memberVertex(b) otherwise.
func detectorInput(t *testing.T, data []byte) (h *hypergraph.Hypergraph, vAlive, eAlive []bool, eDeg []int32, kills []byte) {
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
			edges[f] = append(edges[f], memberVertex(next()))
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
	for f := range eAlive {
		eAlive[f] = eDead>>f&1 == 0
	}
	eDeg = make([]int32, h.NumEdges())
	recount(h, vAlive, eAlive, eDeg)
	return h, vAlive, eAlive, eDeg, data
}

// memberVertex reads byte b as vertex (b & 15) + 64·(b>>4 & 3), so the
// fuzzed members spread over four pages of 64 vertices.
func memberVertex(b byte) int32 {
	return int32(b&15) + 64*int32(b>>4&3)
}
