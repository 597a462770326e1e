package mmio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hyperplex/internal/run"
)

const sampleGeneral = `%%MatrixMarket matrix coordinate real general
% a comment
3 4 5
1 1 1.5
2 2 -2
3 3 3.25
1 4 4
3 1 0.5
`

func TestReadGeneral(t *testing.T) {
	m, err := Read(strings.NewReader(sampleGeneral))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 4 || m.NNZ() != 5 {
		t.Fatalf("shape %dx%d nnz %d", m.Rows, m.Cols, m.NNZ())
	}
	if m.RowIdx[0] != 0 || m.ColIdx[0] != 0 || m.Val[0] != 1.5 {
		t.Errorf("first entry = (%d,%d,%v)", m.RowIdx[0], m.ColIdx[0], m.Val[0])
	}
	if m.Pattern {
		t.Error("real matrix flagged as pattern")
	}
}

func TestReadSymmetricExpands(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 1
2 1 5
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Diagonal stays single, off-diagonal mirrored: 3 stored entries.
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", m.NNZ())
	}
}

func TestReadPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Pattern || m.NNZ() != 2 || m.Val[0] != 1 {
		t.Errorf("pattern read wrong: %+v", m)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"bad header":       "%%NotMatrixMarket\n1 1 1\n1 1 1\n",
		"array storage":    "%%MatrixMarket matrix array real general\n1 1\n1\n",
		"bad field":        "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 1\n",
		"bad symmetry":     "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"no size":          "%%MatrixMarket matrix coordinate real general\n",
		"bad size":         "%%MatrixMarket matrix coordinate real general\n1 1\n",
		"entry range":      "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
		"entry malformed":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		"bad value":        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zzz\n",
		"wrong nnz":        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n",
		"negative indices": "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted invalid input", name)
		}
	}
}

// TestReadPresize pins ReadCtx's sizing from the size line: a header
// promising 2^31−1 entries over a two-line body still fails with the
// count-mismatch error; the presized bytes are charged to MaxAlloc
// before they are allocated, so a small budget refuses that header; and
// on an honest file the budget sees each stored entry's bytes once.
func TestReadPresize(t *testing.T) {
	huge := "%%MatrixMarket matrix coordinate real general\n2 2 2147483647\n1 1 1\n2 2 1\n"
	if _, err := Read(strings.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "read 2 entries, header promised 2147483647") {
		t.Fatalf("huge promise: err = %v, want the count mismatch", err)
	}
	ctx, _ := run.WithBudget(context.Background(), run.Budget{MaxAlloc: 1 << 20})
	if _, err := ReadCtx(ctx, strings.NewReader(huge)); !errors.Is(err, run.ErrBudgetExceeded) {
		t.Fatalf("huge promise under a 1 MiB budget: err = %v, want ErrBudgetExceeded", err)
	}

	// Symmetric: the promised entries are presized, the mirrored ones
	// are charged as they arrive.
	var b strings.Builder
	const n = 1000
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate pattern symmetric\n%d %d %d\n", n, n, n)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "%d %d\n", i, 1+(i*7)%n)
	}
	ctx, meter := run.WithBudget(context.Background(), run.Budget{})
	m, err := ReadCtx(ctx, strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got, lo, hi := meter.Allocated(), int64(m.NNZ())*entryBytes, int64(m.NNZ()+readCheckEvery)*entryBytes; got < lo || got >= hi {
		t.Fatalf("charged %d bytes for %d stored entries, want [%d, %d)", got, m.NNZ(), lo, hi)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m, err := Read(strings.NewReader(sampleGeneral))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Rows != m.Rows || m2.Cols != m.Cols || m2.NNZ() != m.NNZ() {
		t.Fatalf("round trip shape mismatch")
	}
	for k := 0; k < m.NNZ(); k++ {
		if m.RowIdx[k] != m2.RowIdx[k] || m.ColIdx[k] != m2.ColIdx[k] || m.Val[k] != m2.Val[k] {
			t.Fatalf("entry %d mismatch", k)
		}
	}
}

func TestToHypergraph(t *testing.T) {
	m, err := Read(strings.NewReader(sampleGeneral))
	if err != nil {
		t.Fatal(err)
	}
	h, err := ToHypergraph(m)
	if err != nil {
		t.Fatal(err)
	}
	// 3 rows → 3 vertices; 4 columns → 4 hyperedges.
	if h.NumVertices() != 3 || h.NumEdges() != 4 {
		t.Fatalf("shape: %v", h)
	}
	// Column 1 has rows {1, 3} → hyperedge 0 = {0, 2}.
	if h.EdgeDegree(0) != 2 {
		t.Errorf("edge 0 degree = %d, want 2", h.EdgeDegree(0))
	}
	// Column 2 has row {2} only.
	if h.EdgeDegree(1) != 1 {
		t.Errorf("edge 1 degree = %d, want 1", h.EdgeDegree(1))
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromHypergraphRoundTrip(t *testing.T) {
	m, err := Read(strings.NewReader(sampleGeneral))
	if err != nil {
		t.Fatal(err)
	}
	h, err := ToHypergraph(m)
	if err != nil {
		t.Fatal(err)
	}
	m2 := FromHypergraph(h)
	if m2.Rows != 3 || m2.Cols != 4 || m2.NNZ() != 5 {
		t.Fatalf("round trip: %dx%d nnz %d", m2.Rows, m2.Cols, m2.NNZ())
	}
	h2, err := ToHypergraph(m2)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumPins() != h.NumPins() {
		t.Error("pins changed across matrix round trip")
	}
}
