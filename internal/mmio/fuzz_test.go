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

// fuzzShapes are the headers every line of a fuzz input is parsed
// under: both field kinds, general and symmetric, at small, non-square
// and int32-wide dimensions.
var fuzzShapes = []Info{
	{Rows: 9, Cols: 9}, {Rows: 9, Cols: 9, Pattern: true},
	{Rows: 7, Cols: 2, Symmetric: true}, {Rows: 7, Cols: 2, Pattern: true, Symmetric: true},
	{Rows: maxIndex, Cols: maxIndex}, {Rows: maxIndex, Cols: maxIndex, Pattern: true, Symmetric: true},
}

// FuzzReadMatrixMarket feeds arbitrary bytes to the Matrix Market
// parser.  Every line of the input that fastEntry accepts under one of
// fuzzShapes must be accepted by parseEntry with bit-identical indices
// and value.  Accepted inputs must survive write→read with every entry
// bit identical, and (for sane dimensions) convert to a structurally
// valid hypergraph.
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
		for _, line := range strings.Split(data, "\n") {
			line := []byte(strings.TrimSuffix(line, "\r"))
			for k := range fuzzShapes {
				info := &fuzzShapes[k]
				i, j, v, ok := fastEntry(line, info)
				if !ok {
					continue
				}
				gi, gj, gv, _, fault := parseEntry(bytes.TrimSpace(line), nil, info)
				if fault != "" || gi != i || gj != j || math.Float64bits(gv) != math.Float64bits(v) {
					t.Fatalf("line %q under %+v: fastEntry gives (%d,%d,%v), parseEntry (%d,%d,%v) %q", line, *info, i, j, v, gi, gj, gv, fault)
				}
			}
		}
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
		if m.Pattern && (m.Val != nil || m2.Val != nil) {
			t.Fatalf("pattern matrix holds %d values, its re-read %d", len(m.Val), len(m2.Val))
		}
		for k := 0; k < m.NNZ(); k++ {
			if m.RowIdx[k] != m2.RowIdx[k] || m.ColIdx[k] != m2.ColIdx[k] {
				t.Fatalf("entry %d changed: (%d,%d) to (%d,%d)", k, m.RowIdx[k], m.ColIdx[k], m2.RowIdx[k], m2.ColIdx[k])
			}
			if !m.Pattern && math.Float64bits(m.Val[k]) != math.Float64bits(m2.Val[k]) {
				t.Fatalf("entry %d (%d,%d) changed value: %g to %g", k, m.RowIdx[k], m.ColIdx[k], m.Val[k], m2.Val[k])
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
