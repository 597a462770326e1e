// In-package test of the containment detector's stamp generations,
// which the exported API does not reach.  The detector's agreement with
// the other detections is pinned in internal/core (reduce_test.go).
package csr

import (
	"testing"

	"hyperplex/internal/hypergraph"
)

// TestDetectorStampWraparound pins the stamp-generation wraparound:
// tests on either side of the int32 rollover must not cross-talk
// through stale stamps, and the rollover clears both stamp arrays.
func TestDetectorStampWraparound(t *testing.T) {
	// Edge 0 ⊂ edge 1 (d(f) = 2, decided by the witnesses alone); edge 2
	// ⊂ edge 3 (d(f) = 3, decided by the member count); edge 4 is
	// maximal.
	h, err := hypergraph.FromEdgeSets(6, [][]int32{{0, 1}, {0, 1, 5}, {2, 3, 4}, {1, 2, 3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	c := FromH(h)
	s := &Snapshot{C: c, Rows: c.EAdj, VAlive: make([]bool, c.NumVertices()), EDeg: make([]int32, c.NumEdges())}
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
