package core

import (
	"context"
	"math"
	"testing"

	"hyperplex/internal/dataset"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/partition"
)

// TestPeelMemberCounts pins the member counts the containment
// detector performs over a full sequential decomposition, the pins
// they scan and the verdicts its certificates answer, exactly.  The
// witness choice (the first and the last alive member of a C.EAdj row,
// the lighter one scanned) decides which candidates reach a member
// count and which pairs become certificates, so a change to it or to
// the certificate rule moves these pins; a change re-records them only
// on purpose and gives the reason in CHANGES.md.
func TestPeelMemberCounts(t *testing.T) {
	banded, err := mmio.ToHypergraph(gen.SyntheticMatrix(gen.MatrixSpec{Name: "bench", Rows: 8000, Cols: 8000, Band: 10, BandFill: 0.7, RandomPerRow: 2, Seed: 0xBE}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                    string
		h                       *hypergraph.Hypergraph
		counts, pins, certified int64
	}{
		{"banded 8000x8000", banded, 11838, 210360, 20548},
		{"Cellzome", dataset.Cellzome().H, 36, 856, 117},
		{"proteome 20000x3000", dataset.SyntheticProteome(20000, 3000, 42), 1075, 28488, 701},
	} {
		w := NewDistPeeler(tc.h, partition.Build(tc.h, 1))
		if _, err := w.peel(context.Background(), tc.h, math.MaxInt); err != nil {
			t.Fatal(err)
		}
		if counts, pins := w.det.MemberCounts(); counts != tc.counts || pins != tc.pins {
			t.Errorf("%s: %d member counts over %d pins, pinned %d over %d", tc.name, counts, pins, tc.counts, tc.pins)
		}
		if got := w.det.Certified(); got != tc.certified {
			t.Errorf("%s: %d verdicts answered by a certificate, pinned %d", tc.name, got, tc.certified)
		}
	}
}
