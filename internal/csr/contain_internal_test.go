// In-package tests of the containment detector's stamp generations
// and signature filter, which the exported API does not reach.  The
// detector's agreement with the other detections is pinned in
// internal/core (detectors_test.go).
package csr

import "testing"

// fromRows builds the CSR of sorted, duplicate-free member rows over
// nv vertices.
func fromRows(t *testing.T, nv int, rows [][]int32) *CSR {
	t.Helper()
	c := &CSR{VOff: make([]int32, nv+1), EOff: make([]int32, len(rows)+1)}
	for f, row := range rows {
		c.EAdj = append(c.EAdj, row...)
		c.EOff[f+1] = c.EOff[f] + int32(len(row))
		for _, v := range row {
			c.VOff[v+1]++
		}
	}
	for v := 0; v < nv; v++ {
		c.VOff[v+1] += c.VOff[v]
	}
	c.VAdj = make([]int32, len(c.EAdj))
	next := append([]int32(nil), c.VOff[:nv]...)
	for f, row := range rows {
		for _, v := range row {
			c.VAdj[next[v]] = int32(f)
			next[v]++
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDetectorStampWraparound pins the stamp-generation wraparound:
// tests on either side of the int32 rollover must not cross-talk
// through stale stamps, and the rollover clears both stamp arrays.
func TestDetectorStampWraparound(t *testing.T) {
	// Edge 0 ⊂ edge 1 (d(f) = 2, decided by the witnesses alone); edge 2
	// ⊂ edge 3 (d(f) = 3, decided by the member count); edge 4 is
	// maximal.
	c := fromRows(t, 6, [][]int32{{0, 1}, {0, 1, 5}, {2, 3, 4}, {1, 2, 3, 4}, {4, 5}})
	s := &Snapshot{C: c, VAlive: make([]bool, c.NumVertices()), EDeg: make([]int32, c.NumEdges()), Sig: Signatures(c)}
	for v := range s.VAlive {
		s.VAlive[v] = true
	}
	for f := range s.EDeg {
		s.EDeg[f] = c.EdgeDegree(int32(f))
	}
	want := []bool{true, false, true, false, false}
	d := NewDetector(c)
	d.seq = 1<<31 - 4
	wrapped := false
	for trial := 0; trial < 4; trial++ {
		for f, w := range want {
			before := d.seq
			if got, _ := d.Dead(s, int32(f)); got != w {
				t.Fatalf("trial %d (seq %d): Dead(%d) = %t, want %t", trial, before, f, got, w)
			}
			if d.seq >= before {
				continue
			}
			wrapped = true
			for _, arr := range [][]int32{d.stamp, d.estamp} {
				for i, x := range arr {
					if x > d.seq {
						t.Fatalf("trial %d: stale stamp %d at %d survived the wraparound (seq %d)", trial, x, i, d.seq)
					}
				}
			}
		}
	}
	if !wrapped {
		t.Fatal("the generation never wrapped; start it closer to the int32 limit")
	}
}

// TestDetectorSignatureFilter pins what the signature filter lets
// through to the member count.  In each case the candidate g holds the
// witnesses 0 and 1 of f = {0, 1, 2, 7} and is larger, so only the
// signature filter and the member count can rule it out.  The filter
// must build f's signature from its alive members: with 7 dead, the
// last case is a containment that 7's bit would hide.
func TestDetectorSignatureFilter(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      []int32
		dead7  bool
		want   bool
		counts int64
	}{
		{"the signature rules g out", []int32{0, 1, 2, 3, 5}, false, false, 0},
		{"the signatures collide", []int32{0, 1, 2, 3, 71}, false, false, 1},
		{"f's dead member sets no bit", []int32{0, 1, 2, 3, 5}, true, true, 1},
	} {
		c := fromRows(t, 72, [][]int32{{0, 1, 2, 7}, tc.g})
		s := &Snapshot{C: c, VAlive: make([]bool, c.NumVertices()), EDeg: make([]int32, c.NumEdges()), Sig: Signatures(c)}
		for v := range s.VAlive {
			s.VAlive[v] = !tc.dead7 || v != 7
		}
		s.EDeg[0], s.EDeg[1] = 4, 5
		if tc.dead7 {
			s.EDeg[0] = 3
		}
		d := NewDetector(c)
		if got, _ := d.Dead(s, 0); got != tc.want {
			t.Errorf("%s: Dead(f) = %t, want %t", tc.name, got, tc.want)
		}
		if d.memberCounts != tc.counts || d.memberPins != 5*tc.counts {
			t.Errorf("%s: %d member counts over %d pins, want %d over %d", tc.name, d.memberCounts, d.memberPins, tc.counts, 5*tc.counts)
		}
	}
}
