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
// all tests.

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
	// Sig[g] is hyperedge g's static member signature: the OR of bit
	// v mod 64 over every member v of g in C (Signatures).  It never
	// changes during a peel.
	Sig []uint64
}

// Signatures returns the static member signature of every hyperedge of
// c, the Snapshot.Sig of any snapshot over c.
func Signatures(c *CSR) []uint64 {
	sig := make([]uint64, c.NumEdges())
	for f := range sig {
		sig[f] = signature(c.EAdj[c.EOff[f]:c.EOff[f+1]])
	}
	return sig
}

// signature is the OR of bit v mod 64 over the vertices of row.
func signature(row []int32) uint64 {
	var sig uint64
	for _, v := range row {
		sig |= 1 << (v & 63)
	}
	return sig
}

// Detector is one worker's stamp scratch for containment tests:
// stamp[w] == seq marks w as an alive member of the hyperedge under
// test, estamp[g] == seq marks g as incident to its stamped witness.
// Generations make a test O(1) to reset; the arrays are cleared only on
// the int32 wraparound.
type Detector struct {
	stamp  []int32
	estamp []int32
	seq    int32

	// memberCounts and memberPins total the member counts Dead has
	// performed and the pins they scanned.
	memberCounts, memberPins int64
}

// NewDetector allocates detector scratch sized for c.
func NewDetector(c *CSR) *Detector {
	return &Detector{
		stamp:  make([]int32, c.NumVertices()),
		estamp: make([]int32, c.NumEdges()),
	}
}

// Dead reports whether hyperedge f is dead or non-maximal in s, so the
// reduction retires it: f has no alive member (s.EDeg[f] == 0, which is
// also how an already retired f reads), or f is contained in another
// alive hyperedge g over the alive vertices of s, with the reduction
// tie-break (d(g) > d(f), or d(g) == d(f) and g < f, so the lowest-ID
// copy of an equal-set family survives).  It also returns the
// elementary operations it spent, for callers that charge a budget.
//
// Instead of counting overlaps, it scans the hyperedges incident to an
// alive member of f, the scanned witness — any g containing f must
// appear there — and prunes the candidates before counting members:
//
//   - witness filter: g must also be incident to a second alive member,
//     the stamped witness, and for d(f) ≤ 2 the witnesses are the whole
//     containment test;
//   - degree filter: dead hyperedges have degree 0 in s.EDeg, so the
//     tie-break comparison skips them without a liveness load;
//   - signature filter: g cannot contain f when f's alive members set
//     a bit (v mod 64) that g's static signature s.Sig[g] lacks, since
//     g's alive members are a subset of its static ones.  This is the
//     signature test of set-containment joins; it skips only member
//     counts that would fail.
//
// The witnesses are the first and the last alive member of f in its
// C.EAdj row, and the one with the shorter static incidence row (the
// first on a tie) is the scanned one.  Members far apart in a row
// share fewer hyperedges than neighbours do (on a banded matrix the
// first two members of a row share almost all of theirs), so fewer
// candidates pass the witness filter, and the scan is the shorter of
// the two rows.  Which alive members serve as witnesses changes the
// cost, never the verdict: a g that contains alive(f) is incident to
// every alive member of f.  f's alive members are stamped, and their
// signature ORed together, lazily on the first candidate passing the
// witness and degree filters.  The signature filter changes neither
// the verdict nor the returned op count, which charges the stamping
// pass over the stamped witness's row and the entries of the scanned
// row read, not the member counts.
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
	eOff, eAdj, sig := c.EOff, c.EAdj, s.Sig
	stamp, stamped, sigF := d.stamp, false, uint64(0)
	//hyperplexvet:ignore budgettick bounded: one pass over the scanned witness's static incidence row, whose cost the returned op count reports; DistPeeler's phases charge it to their meter
	for k, g := range row {
		if estamp[g] != seq || g == f {
			continue
		}
		if dg := eDeg[g]; dg < df || (dg == df && g > f) {
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
					sigF |= 1 << (w & 63)
				}
			}
		}
		if sigF&^sig[g] != 0 {
			continue // an alive member of f is no member of g
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
	return false, len(wrow) + len(row)
}

// MemberCounts returns the member counts Dead has performed over the
// detector's lifetime and the pins they scanned.
func (d *Detector) MemberCounts() (counts, pins int64) {
	return d.memberCounts, d.memberPins
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
