package mmio

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"hyperplex/internal/run"
)

// fuzzDimLimit keeps ToHypergraph off inputs whose parsed dimensions
// (attacker-chosen in the size line) would demand per-row/per-column
// allocations far beyond anything the entry list can justify.
const fuzzDimLimit = 1 << 16

// FuzzReadMatrixMarket feeds arbitrary bytes to the Matrix Market
// parser.  Accepted inputs must survive write→read with every entry bit
// identical, and (for sane dimensions) convert to a structurally valid
// hypergraph.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.5\n3 2 -2\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n% comment\n3 3 2\n1 1\n3 2\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n2 4 1\n2 4 7\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 0\n")
	// Unicode separators split entries exactly as strings.Fields does;
	// signs and leading zeros go through strconv.Atoi.
	f.Add("%%MatrixMarket\u00a0matrix coordinate real\u3000symmetric\n3\u20033 2\u0085\n+1\u00a0001\u30001.5\n\u20283 2 -2\u2003\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\u00a0x\n")
	// Enough entries to cross the reader's periodic checkpoint (256).
	f.Add("%%MatrixMarket matrix coordinate pattern general\n9 9 300\n" + strings.Repeat("1 1\n", 300))
	f.Fuzz(func(t *testing.T, data string) {
		// A pre-cancelled context surfaces context.Canceled for every
		// input — never a partial parse or another error class.
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := ReadCtx(cctx, strings.NewReader(data)); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled ReadCtx of %q: got %v, want context.Canceled", data, err)
		}
		m, err := Read(strings.NewReader(data))
		if err != nil {
			return
		}
		// A starved step budget must either reproduce the unbudgeted
		// parse or fail with a clean ErrBudgetExceeded.
		bctx, _ := run.WithBudget(context.Background(), run.Budget{MaxSteps: 128})
		switch mb, berr := ReadCtx(bctx, strings.NewReader(data)); {
		case berr == nil:
			if mb.Rows != m.Rows || mb.Cols != m.Cols || mb.NNZ() != m.NNZ() {
				t.Fatalf("budgeted ReadCtx of %q changed shape: %dx%d/%d to %dx%d/%d", data,
					m.Rows, m.Cols, m.NNZ(), mb.Rows, mb.Cols, mb.NNZ())
			}
		case errors.Is(berr, run.ErrBudgetExceeded):
		default:
			t.Fatalf("budgeted ReadCtx of %q: got %v, want success or ErrBudgetExceeded", data, berr)
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("Write of parsed matrix: %v", err)
		}
		m2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
		if m.Rows != m2.Rows || m.Cols != m2.Cols || m.NNZ() != m2.NNZ() || m.Pattern != m2.Pattern {
			t.Fatalf("round trip changed shape: %dx%d/%d/%t to %dx%d/%d/%t",
				m.Rows, m.Cols, m.NNZ(), m.Pattern, m2.Rows, m2.Cols, m2.NNZ(), m2.Pattern)
		}
		for k := 0; k < m.NNZ(); k++ {
			if m.RowIdx[k] != m2.RowIdx[k] || m.ColIdx[k] != m2.ColIdx[k] ||
				math.Float64bits(m.Val[k]) != math.Float64bits(m2.Val[k]) {
				t.Fatalf("entry %d changed: (%d,%d,%g) to (%d,%d,%g)",
					k, m.RowIdx[k], m.ColIdx[k], m.Val[k], m2.RowIdx[k], m2.ColIdx[k], m2.Val[k])
			}
		}
		if m.Rows > fuzzDimLimit || m.Cols > fuzzDimLimit {
			return
		}
		h, err := ToHypergraph(m)
		if err != nil {
			t.Fatalf("ToHypergraph of parsed matrix: %v", err)
		}
		if err := h.CSR().Validate(); err != nil {
			t.Fatalf("ToHypergraph produced invalid hypergraph: %v", err)
		}
	})
}
