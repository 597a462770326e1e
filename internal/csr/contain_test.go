// External test of the containment detector's work over whole peels,
// through the member-count totals export_test.go exposes.
package csr_test

import (
	"testing"

	"hyperplex/internal/csr"
	"hyperplex/internal/dataset"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
)

// TestPeelMemberCounts pins the member counts the detector performs
// over a full decomposition, and the pins they scan, exactly.  The
// signature filter decides which candidates reach a member count, so a
// change to it moves these pins; a change re-records them only on
// purpose and gives the reason in CHANGES.md.  Without the filter the
// peel made 120,978 counts over 2,208,066 pins on the banded file, 27
// over 718 on Cellzome and 605 over 15,492 on the proteome.
func TestPeelMemberCounts(t *testing.T) {
	banded, err := mmio.ToHypergraph(gen.SyntheticMatrix(gen.MatrixSpec{Name: "bench", Rows: 8000, Cols: 8000, Band: 10, BandFill: 0.7, RandomPerRow: 2, Seed: 0xBE}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		h            *hypergraph.Hypergraph
		counts, pins int64
	}{
		{"banded 8000x8000", banded, 4941, 90364},
		{"Cellzome", dataset.Cellzome().H, 5, 142},
		{"proteome 20000x3000", dataset.SyntheticProteome(20000, 3000, 42), 133, 5318},
	} {
		counts, pins := csr.PeelMemberCounts(csr.FromH(tc.h))
		if counts != tc.counts || pins != tc.pins {
			t.Errorf("%s: %d member counts over %d pins, pinned %d over %d", tc.name, counts, pins, tc.counts, tc.pins)
		}
	}
}
