// In-package tests of the containment detector's stamp generations,
// member counts, witness choice and certificates, which the exported
// API does not reach.  The detector's agreement with the other detections is pinned
// in internal/core (detectors_test.go).
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
// Each trial starts with Forget, so no certificate spares a test its
// scan.
func TestDetectorStampWraparound(t *testing.T) {
	// Edge 0 ⊂ edge 1 (d(f) = 2, decided by the witnesses alone); edge 2
	// ⊂ edge 3 (d(f) = 3, decided by the member count); edge 4 is
	// maximal.
	c := fromRows(t, 6, [][]int32{{0, 1}, {0, 1, 5}, {2, 3, 4}, {1, 2, 3, 4}, {4, 5}})
	s := &Snapshot{C: c, VAlive: make([]bool, c.NumVertices()), EDeg: make([]int32, c.NumEdges())}
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
		d.Forget()
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

// TestDetectorMemberCount pins what the member count decides.  In
// each case the candidate g holds the witnesses of f = {0, 1, 2, 7},
// its first and last alive members (0 and 7, or 0 and 2 once 7 is
// dead), and is larger, so it passes both filters and one member count
// over its 5 pins rules it out or finds the containment.  The count
// must stamp f's alive members only: with 7 dead, the last case is a
// containment that 7 would hide.
func TestDetectorMemberCount(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     []int32
		dead7 bool
		want  bool
	}{
		{"g lacks member 2", []int32{0, 1, 3, 5, 7}, false, false},
		{"g lacks member 2 and holds 66", []int32{0, 1, 3, 7, 66}, false, false},
		{"f's dead member is not counted", []int32{0, 1, 2, 3, 5}, true, true},
	} {
		c := fromRows(t, 72, [][]int32{{0, 1, 2, 7}, tc.g})
		s := &Snapshot{C: c, VAlive: make([]bool, c.NumVertices()), EDeg: make([]int32, c.NumEdges())}
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
		if counts, pins := d.MemberCounts(); counts != 1 || pins != 5 {
			t.Errorf("%s: %d member counts over %d pins, want 1 over 5", tc.name, counts, pins)
		}
	}
}

// TestDetectorWitnessRule pins which witnesses Dead takes through the
// op count it returns: f's first and last alive members, of which the
// one with the shorter incidence row is scanned and the other one's
// row stamped.  Vertex 0 is a hub of 9 hyperedges, 1 is in 3 and 2 in
// 2.  A maximal f costs both witness rows, and a test that finds its
// container at position k of the scanned row costs the stamped row
// plus k + 1.  In the first case the first two alive members, 0 and
// 1, would cost 9 + 3 = 12; in the second, scanning the hub and
// stamping 2's row would cost 2 + 1 = 3.
//
// It then follows f = {0, 1, 2}'s certificate through one detector
// while vertices and hyperedges die: the alive {0, 2} holds both
// witnesses, so although it fails the degree filter no certificate is
// issued; once it dies the scan certifies 0 and 2, and a re-test costs
// 1 op; 2's death brings the full scan back, which certifies 0 and 1;
// and Forget drops that pair.
func TestDetectorWitnessRule(t *testing.T) {
	rows := [][]int32{{0, 1, 2}, {0, 2}}
	for i := int32(0); i < 7; i++ {
		rows = append(rows, []int32{0, 10 + i})
	}
	rows = append(rows, []int32{1, 20}, []int32{1, 21})
	c := fromRows(t, 22, rows)
	for _, tc := range []struct {
		name  string
		f     int32
		dead2 bool
		want  bool
		ops   int
	}{
		// Witnesses 0 and 2: 2's row [0 1] is scanned; {0, 2} is
		// smaller than f, so f is maximal.
		{"hub first, light last", 0, false, false, 11},
		// d(f) = 2, witnesses 0 and 2: f's container {0, 1, 2} heads
		// 2's row, and the witnesses decide.
		{"d(f) = 2, hub first", 1, false, true, 10},
		// With 2 dead the last alive member is 1, whose row [0 9 10]
		// is scanned; d(f) = 2 and no other hyperedge holds 0 and 1.
		{"the last alive member", 0, true, false, 12},
	} {
		s := &Snapshot{C: c, VAlive: make([]bool, c.NumVertices()), EDeg: make([]int32, c.NumEdges())}
		for v := range s.VAlive {
			s.VAlive[v] = !tc.dead2 || v != 2
		}
		for f := range s.EDeg {
			for _, v := range c.EAdj[c.EOff[f]:c.EOff[f+1]] {
				if s.VAlive[v] {
					s.EDeg[f]++
				}
			}
		}
		got, ops := NewDetector(c).Dead(s, tc.f)
		if got != tc.want || ops != tc.ops {
			t.Errorf("%s: Dead(%d) = %t at %d ops, want %t at %d", tc.name, tc.f, got, ops, tc.want, tc.ops)
		}
	}

	s := &Snapshot{C: c, VAlive: make([]bool, c.NumVertices()), EDeg: make([]int32, c.NumEdges())}
	for v := range s.VAlive {
		s.VAlive[v] = true
	}
	for f := range s.EDeg {
		s.EDeg[f] = c.EdgeDegree(int32(f))
	}
	d := NewDetector(c)
	for _, step := range []struct {
		name      string
		kill      func()
		ops       int
		certified int64
	}{
		{"{0, 2} holds both witnesses", nil, 11, 0},
		{"the blocked pair issued no certificate", nil, 11, 0},
		{"{0, 2} dead: the scan certifies 0 and 2", func() { s.EDeg[1] = 0 }, 11, 0},
		{"both witnesses alive", nil, 1, 1},
		{"witness 2 dead: the full scan certifies 0 and 1", func() { s.VAlive[2], s.EDeg[0] = false, 2 }, 12, 1},
		{"both new witnesses alive", nil, 1, 2},
		{"Forget dropped the pair", d.Forget, 12, 2},
	} {
		if step.kill != nil {
			step.kill()
		}
		got, ops := d.Dead(s, 0)
		if got || ops != step.ops || d.Certified() != step.certified {
			t.Errorf("%s: Dead(0) = %t at %d ops, %d certified verdicts; want false at %d, %d", step.name, got, ops, d.Certified(), step.ops, step.certified)
		}
	}
}
