package gen

import (
	"hyperplex/internal/mmio"
	"hyperplex/internal/xrand"
)

// MatrixSpec parameterizes a synthetic sparse matrix standing in for a
// Matrix Market test matrix in Table 1.  The pattern is a band of the
// given half-width around the diagonal (the dominant structure of the
// finite-element and circuit matrices the paper used) with a fraction
// of additional uniformly random fill.
type MatrixSpec struct {
	Name       string
	Rows, Cols int
	// Band is the half bandwidth; each row gets nonzeros at columns
	// j ∈ [i−Band, i+Band] with probability BandFill.
	Band     int
	BandFill float64
	// RandomPerRow adds this many uniformly random extra nonzeros per
	// row, modelling the long-range coupling entries.
	RandomPerRow int
	Seed         uint64
}

// SyntheticMatrix generates the matrix described by spec.
func SyntheticMatrix(spec MatrixSpec) *mmio.Matrix {
	rng := xrand.New(spec.Seed)
	m := &mmio.Matrix{Rows: spec.Rows, Cols: spec.Cols, Pattern: true}
	add := func(i, j int) {
		if i < 0 || i >= spec.Rows || j < 0 || j >= spec.Cols {
			return
		}
		m.RowIdx = append(m.RowIdx, int32(i))
		m.ColIdx = append(m.ColIdx, int32(j))
	}
	for i := 0; i < spec.Rows; i++ {
		add(i, i) // always keep the diagonal
		for o := 1; o <= spec.Band; o++ {
			if rng.Float64() < spec.BandFill {
				add(i, i+o)
			}
			if rng.Float64() < spec.BandFill {
				add(i, i-o)
			}
		}
		for r := 0; r < spec.RandomPerRow; r++ {
			add(i, rng.Intn(spec.Cols))
		}
	}
	return m
}

// Table1Specs returns the synthetic stand-ins for the Matrix Market
// matrices of Table 1, at the scales of the originals (bfw398a,
// utm5940 and three matrices of the fidap/bcsstk families; the paper's
// table legend truncates the names to bfw…, fdp…, stk…, utm…, fdp…).
// The `short` variant shrinks every dimension ~8× so the full pipeline
// stays interactive in -short test runs.
func Table1Specs(short bool) []MatrixSpec {
	specs := []MatrixSpec{
		{Name: "bfw398a", Rows: 398, Cols: 398, Band: 8, BandFill: 0.55, RandomPerRow: 1, Seed: 0xbf01},
		{Name: "utm5940", Rows: 5940, Cols: 5940, Band: 10, BandFill: 0.6, RandomPerRow: 2, Seed: 0x071a},
		{Name: "fdp011", Rows: 16614, Cols: 16614, Band: 14, BandFill: 0.7, RandomPerRow: 2, Seed: 0xfd11},
		{Name: "stk32", Rows: 44609, Cols: 44609, Band: 16, BandFill: 0.7, RandomPerRow: 1, Seed: 0x5732},
		{Name: "fdpm37", Rows: 9152, Cols: 9152, Band: 30, BandFill: 0.8, RandomPerRow: 2, Seed: 0xfd37},
	}
	if short {
		for i := range specs {
			specs[i].Rows /= 8
			specs[i].Cols /= 8
			if specs[i].Rows < 64 {
				specs[i].Rows, specs[i].Cols = 64, 64
			}
		}
	}
	return specs
}
