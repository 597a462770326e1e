package csr

// This file is the package's containment detector: the one
// implementation of the reduction test "is hyperedge f empty or
// contained in another alive hyperedge?" run by the one peel kernel,
// the DistPeeler phases of internal/core that every core route drives.
// It reads a snapshot of the caller's own flat peel arrays (no
// accessor callbacks) and keeps its stamps in per-worker arrays, so
// no pairwise overlap table is ever maintained.  The peel calls it in
// rounds: each hyperedge that shrank in a round is tested once against
// the state the round left, and the dead ones are deleted only after
// all tests.  Within a peel vertices and hyperedges only die, so an
// alive verdict leaves a certificate behind: a pair of alive members
// no other alive hyperedge holds, which answers the next test of the
// same hyperedge while both members live.

// Snapshot is the alive state a containment test reads: the caller's
// own peel arrays, viewed in place.  They must not change during a
// test; workers may test concurrently against one Snapshot as long as
// each owns its Detector and nothing writes the arrays meanwhile.
type Snapshot struct {
	C *CSR
	// VAlive[v] reports whether vertex v is alive.
	VAlive []bool
	// EDeg[g] is the alive degree of hyperedge g and must be 0 once g
	// is dead: the degree filter then skips dead candidates without a
	// liveness load.
	EDeg []int32
}

// Detector is one worker's scratch for containment tests: stamp[w] ==
// seq marks w as an alive member of the hyperedge under test, and
// estamp[g] == seq marks g as incident to its stamped witness.
// Generations make a test O(1) to reset; the stamp arrays are cleared
// only on the int32 wraparound.  cert[2f] and cert[2f+1] are f's
// certificate, the witnesses of an alive verdict on f that no other
// alive hyperedge held both of.  The second witness follows the first
// in f's sorted row, so it is never 0, and cert[2f+1] == 0 means f has
// none.
type Detector struct {
	stamp  []int32
	estamp []int32
	seq    int32
	cert   []int32

	// memberCounts and memberPins total the member counts Dead has
	// performed and the pins they scanned; certified counts the
	// verdicts a certificate answered.
	memberCounts, memberPins, certified int64
}

// NewDetector allocates detector scratch sized for c, with no
// certificate.
func NewDetector(c *CSR) *Detector {
	return &Detector{
		stamp:  make([]int32, c.NumVertices()),
		estamp: make([]int32, c.NumEdges()),
		cert:   make([]int32, 2*c.NumEdges()),
	}
}

// Forget drops every certificate.  A caller whose snapshot revives a
// vertex or a hyperedge, or moves to unrelated state, calls it first.
func (d *Detector) Forget() { clear(d.cert) }

// Dead reports whether hyperedge f is dead or non-maximal in s, so the
// reduction retires it: f has no alive member (s.EDeg[f] == 0, which is
// also how an already retired f reads), or f is contained in another
// alive hyperedge g over the alive vertices of s, with the reduction
// tie-break (d(g) > d(f), or d(g) == d(f) and g < f, so the lowest-ID
// copy of an equal-set family survives).  It also returns the
// elementary operations it spent, for callers that charge a budget.
//
// Between two calls on one detector without a Forget, vertices and
// hyperedges of s may only die: the certificates rest on that.
//
// Instead of counting overlaps, it scans the hyperedges incident to an
// alive member of f, the scanned witness — any g containing f must
// appear there — and prunes the candidates before counting members:
//
//   - witness filter: g must also be incident to a second alive member,
//     the stamped witness, and for d(f) ≤ 2 the witnesses are the whole
//     containment test;
//   - degree filter: dead hyperedges have degree 0 in s.EDeg, so the
//     tie-break comparison skips them without a liveness load.
//
// The witnesses are the first and the last alive member of f in its
// C.EAdj row, and the one with the shorter static incidence row (the
// first on a tie) is the scanned one.  Members far apart in a row
// share fewer hyperedges than neighbours do (on a banded matrix the
// first two members of a row share almost all of theirs), so fewer
// candidates pass the witness filter, and the scan is the shorter of
// the two rows.  Which alive members serve as witnesses changes the
// cost, never the verdict: a g that contains alive(f) is incident to
// every alive member of f.  f's alive members are stamped lazily, on
// the first candidate passing both filters.  The returned op count
// charges the stamping pass over the stamped witness's row and the
// entries of the scanned row read, not the member counts.
//
// A scan that ends alive with no alive candidate passing the witness
// filter leaves the witness pair as f's certificate: no alive g ≠ f
// holds both, and as hyperedges only die none ever will, so while both
// witnesses live f is maximal.  For d(f) ≥ 2 the certificate is read
// first, and one whose witnesses both live answers alive at 1 op; the
// certificates change the cost, never the verdict.
//
//hyperplexvet:hotpath
func (d *Detector) Dead(s *Snapshot, f int32) (bool, int) {
	// Hot loop: raw field locals keep the candidate scan free of
	// repeated slice-header construction and pointer loads.
	c, vAlive, eDeg := s.C, s.VAlive, s.EDeg
	df := eDeg[f]
	if df == 0 {
		return true, 0
	}
	if df >= 2 {
		if a, b := d.cert[2*int(f)], d.cert[2*int(f)+1]; b != 0 && vAlive[a] && vAlive[b] {
			d.certified++
			return false, 1
		}
	}
	mrow := c.EAdj[c.EOff[f]:c.EOff[f+1]]
	var first int32
	//hyperplexvet:ignore budgettick bounded: eDeg[f] > 0 guarantees an alive member in mrow
	for i := 0; ; i++ {
		if w := mrow[i]; vAlive[w] {
			first = w
			break
		}
	}
	row := c.VertexEdges(first)
	if df == 1 {
		// Every candidate contains first — f's only alive member — so
		// the tie-break alone decides.
		for _, g := range row {
			if g == f {
				continue
			}
			if dg := eDeg[g]; dg > 1 || (dg == 1 && g < f) {
				return true, len(row)
			}
		}
		return false, len(row)
	}
	var last int32
	//hyperplexvet:ignore budgettick bounded: df >= 2 here, so scanning mrow backwards meets an alive member after first
	for i := len(mrow) - 1; ; i-- {
		if w := mrow[i]; vAlive[w] {
			last = w
			break
		}
	}
	// The lighter witness's row is scanned, the other one's stamped.
	wrow := c.VertexEdges(last)
	if len(wrow) < len(row) {
		row, wrow = wrow, row
	}
	seq := d.nextSeq()
	estamp := d.estamp
	for _, g := range wrow {
		estamp[g] = seq
	}
	eOff, eAdj := c.EOff, c.EAdj
	stamp, stamped := d.stamp, false
	// held ORs the degrees of the candidates passing the witness filter:
	// 0 at the end when no alive g ≠ f holds both witnesses.
	held := int32(0)
	//hyperplexvet:ignore budgettick bounded: one pass over the scanned witness's static incidence row, whose cost the returned op count reports; DistPeeler's phases charge it to their meter
	for k, g := range row {
		if estamp[g] != seq || g == f {
			continue
		}
		dg := eDeg[g]
		held |= dg
		if dg < df || (dg == df && g > f) {
			continue
		}
		if df == 2 {
			return true, len(wrow) + k + 1 // g contains both witnesses — all of alive(f)
		}
		if !stamped {
			stamped = true
			for _, w := range mrow {
				if vAlive[w] {
					stamp[w] = seq
				}
			}
		}
		grow := eAdj[eOff[g]:eOff[g+1]]
		d.memberCounts++
		d.memberPins += int64(len(grow))
		n := int32(0)
		for _, w := range grow {
			if stamp[w] == seq {
				n++
			}
		}
		if n == df {
			return true, len(wrow) + k + 1
		}
	}
	if held == 0 {
		d.cert[2*int(f)], d.cert[2*int(f)+1] = first, last
	}
	return false, len(wrow) + len(row)
}

// MemberCounts returns the member counts Dead has performed over the
// detector's lifetime and the pins they scanned.
func (d *Detector) MemberCounts() (counts, pins int64) {
	return d.memberCounts, d.memberPins
}

// Certified returns the verdicts a certificate has answered over the
// detector's lifetime, each a test that scanned no row.
func (d *Detector) Certified() int64 {
	return d.certified
}

// nextSeq advances the stamp generation, clearing both stamp arrays on
// the (rare) int32 wraparound so stale stamps cannot alias.
func (d *Detector) nextSeq() int32 {
	if d.seq == 1<<31-1 {
		d.seq = 0
		clear(d.stamp)
		clear(d.estamp)
	}
	d.seq++
	return d.seq
}
