package bio

import (
	"fmt"
	"sort"

	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

// BaitStats summarizes a bait protein set the way §4.2 reports the
// Cellzome baits: size, average hypergraph degree, and the histogram
// of degrees.
type BaitStats struct {
	Count         int
	AverageDegree float64
	// DegreeCounts[d] = number of baits of hypergraph degree d.
	DegreeCounts map[int]int
}

// ComputeBaitStats summarizes the degrees of the given bait vertex IDs.
func ComputeBaitStats(h *hypergraph.Hypergraph, baits []int) BaitStats {
	s := BaitStats{Count: len(baits), DegreeCounts: map[int]int{}}
	sum := 0
	for _, b := range baits {
		d := h.VertexDegree(b)
		sum += d
		s.DegreeCounts[d]++
	}
	if len(baits) > 0 {
		s.AverageDegree = float64(sum) / float64(len(baits))
	}
	return s
}

func (s BaitStats) String() string {
	degs := make([]int, 0, len(s.DegreeCounts))
	for d := range s.DegreeCounts {
		degs = append(degs, d)
	}
	sort.Ints(degs)
	out := fmt.Sprintf("%d baits, avg degree %.2f;", s.Count, s.AverageDegree)
	for _, d := range degs {
		out += fmt.Sprintf(" d%d:%d", d, s.DegreeCounts[d])
	}
	return out
}

// TAPParams models the reliability of one tandem-affinity-purification
// pull-down.
type TAPParams struct {
	// PullDownSuccess is the probability that tagging a bait and
	// purifying yields the complex at all (the Cellzome study reports
	// ≈ 70 % reproducibility).
	PullDownSuccess float64
	// PreyDetection is the probability that each non-bait member of a
	// successfully pulled-down complex is identified by mass
	// spectrometry.
	PreyDetection float64
	// RecoveryFraction is the fraction of a complex's members that must
	// be observed (across all pull-downs) for the complex to count as
	// recovered.
	RecoveryFraction float64
}

// DefaultTAPParams returns the calibration used by the experiments
// (70 % pull-down reproducibility as published; 90 % prey detection;
// recovery = 75 % of members observed).
func DefaultTAPParams() TAPParams {
	return TAPParams{PullDownSuccess: 0.70, PreyDetection: 0.90, RecoveryFraction: 0.75}
}

// TAPOutcome reports one simulated screen.
type TAPOutcome struct {
	// Recovered[f] reports whether complex f met the recovery
	// criterion.
	Recovered []bool
	// ObservedMembers[f] is the number of distinct members of f seen
	// across all pull-downs.
	ObservedMembers []int
	// PullDowns is the number of attempted pull-downs (Σ bait degrees).
	PullDowns int
	// SuccessfulPullDowns counts those that yielded material.
	SuccessfulPullDowns int
}

// RecoveredCount returns the number of recovered complexes.
func (o *TAPOutcome) RecoveredCount() int {
	n := 0
	for _, r := range o.Recovered {
		if r {
			n++
		}
	}
	return n
}

// RecoveryRate returns the fraction of complexes recovered; the
// denominator is every complex of h, whether or not a bait reached it.
func (o *TAPOutcome) RecoveryRate() float64 {
	if len(o.Recovered) == 0 {
		return 0
	}
	return float64(o.RecoveredCount()) / float64(len(o.Recovered))
}

// SimulateTAP runs one screen: every bait attempts one pull-down per
// complex it belongs to; a successful pull-down observes the bait and
// each other member independently with probability PreyDetection.  A
// complex is recovered when the union of observations across
// pull-downs covers at least RecoveryFraction of its members.  It is
// SimulateScreen with the pull-downs merged per complex.
func SimulateTAP(h *hypergraph.Hypergraph, baits []int, p TAPParams, rng *xrand.RNG) *TAPOutcome {
	s := SimulateScreen(h, baits, p, rng)
	seen := observedPins(h, s)
	ne := h.NumEdges()
	out := &TAPOutcome{
		Recovered:           make([]bool, ne),
		ObservedMembers:     make([]int, ne),
		PullDowns:           s.Attempted,
		SuccessfulPullDowns: len(s.PullDowns),
	}
	off := h.CSR().EOff
	for f := 0; f < ne; f++ {
		for _, in := range seen[off[f]:off[f+1]] {
			if in {
				out.ObservedMembers[f]++
			}
		}
		need := int(p.RecoveryFraction*float64(h.EdgeDegree(f)) + 0.9999)
		if need < 1 {
			need = 1
		}
		out.Recovered[f] = out.ObservedMembers[f] >= need
	}
	return out
}

// ReliabilityTrial compares bait sets over repeated simulated screens.
type ReliabilityTrial struct {
	Name          string
	Baits         []int
	MeanRecovery  float64 // mean fraction of complexes recovered
	MinRecovery   float64
	MeanPullDowns float64
}

// CompareReliability runs `trials` independent screens for each named
// bait set and reports recovery statistics.  This is experiment X1:
// the paper argues (without simulating) that covering each complex
// twice improves reliability at 70 % reproducibility; this quantifies
// the claim.
func CompareReliability(h *hypergraph.Hypergraph, sets map[string][]int, p TAPParams, trials int, rng *xrand.RNG) []ReliabilityTrial {
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ReliabilityTrial, 0, len(names))
	for _, name := range names {
		baits := sets[name]
		t := ReliabilityTrial{Name: name, Baits: baits, MinRecovery: 1}
		var sumRec, sumPD float64
		for i := 0; i < trials; i++ {
			o := SimulateTAP(h, baits, p, rng.Split())
			r := o.RecoveryRate()
			sumRec += r
			sumPD += float64(o.PullDowns)
			if r < t.MinRecovery {
				t.MinRecovery = r
			}
		}
		if trials > 0 {
			t.MeanRecovery = sumRec / float64(trials)
			t.MeanPullDowns = sumPD / float64(trials)
		}
		out = append(out, t)
	}
	return out
}
