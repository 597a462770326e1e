package mmio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
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

// TestReadSymmetricMirrorRange pins the range check on the mirrored
// entry of a symmetric file: the mirror of (7, 1) under a 7×2 size line
// is out of range, while a non-square symmetric file whose mirrors fit
// still reads.
func TestReadSymmetricMirrorRange(t *testing.T) {
	const hdr = "%%MatrixMarket matrix coordinate pattern symmetric\n7 2 1\n"
	_, err := Read(strings.NewReader(hdr + "7 1\n"))
	if want := `mmio: entry 1 out of range: "7 1"`; err == nil || err.Error() != want {
		t.Errorf("mirror outside the size line: got %v, want %s", err, want)
	}
	m, err := Read(strings.NewReader(hdr + "1 1\n"))
	if err != nil || m.Rows != 7 || m.Cols != 2 || m.NNZ() != 1 {
		t.Errorf("non-square symmetric file with a diagonal entry: got %+v, %v", m, err)
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

// TestReadUnicodeSeparators requires files separated by Unicode white
// space, which strings.Fields accepts, to read to exactly the matrix
// of their ASCII-separated equivalents.
func TestReadUnicodeSeparators(t *testing.T) {
	pairs := [][2]string{
		{sampleGeneral, "%%MatrixMarket\u00a0matrix coordinate real\u3000general\n\u2003% a comment\n3\u00a04 5\u0085\n1\u30001 1.5\n" +
			"\u20282 2\u2003-2\n3 3\u00a03.25\n1\u20034 4\n\u00853 1 0.5\u2028\n"},
		{"%%MatrixMarket matrix coordinate pattern symmetric\n4 4 3\n1 1\n3 2\n4 1\n",
			"%%MatrixMarket matrix coordinate pattern symmetric\n4\u30004\u30003\n1\u00851\n\u00a03\u00a02\u00a0\n4\u20281\n"},
	}
	for _, p := range pairs {
		want, err := Read(strings.NewReader(p[0]))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Read(strings.NewReader(p[1]))
		if err != nil {
			t.Fatalf("Read(%q): %v", p[1], err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Read(%q) = %+v, want %+v", p[1], got, want)
		}
	}
}

// TestReadEntryText pins how entries in unusual spellings read: signs,
// leading zeros, overlong digit runs, Unicode white space inside a
// field and invalid UTF-8 are accepted or rejected, with the same
// error text, exactly as strings.Fields and strconv split and convert
// them.
func TestReadEntryText(t *testing.T) {
	const (
		realHdr    = "%%MatrixMarket matrix coordinate real general\n3 3 1\n"
		patternHdr = "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n"
	)
	cases := []struct {
		header, entry string
		want          string // error text, or "(i,j,v)" when accepted
	}{
		{realHdr, "1\u00a0x 1.0", `mmio: entry 1 malformed: "1\u00a0x 1.0"`},
		{realHdr, "99999999999999999999 1 1", `mmio: entry 1 malformed: "99999999999999999999 1 1"`},
		{realHdr, "+1 2", `mmio: entry 1 malformed: "+1 2"`},
		{realHdr, "2 -0", `mmio: entry 1 malformed: "2 -0"`},
		{realHdr, "1 1 abc\u2003", `mmio: entry 1 bad value: "1 1 abc"`},
		{realHdr, "1 2 abc\u2003def", `mmio: entry 1 bad value: "1 2 abc\u2003def"`},
		{realHdr, "1 \xff", `mmio: entry 1 malformed: "1 \xff"`},
		{realHdr, "1 3000000000000000000 1", `mmio: entry 1 out of range: "1 3000000000000000000 1"`},
		{realHdr, "+1 +2 -3e1", "(0,1,-30)"},
		{realHdr, "0001 00000000000000000002 7", "(0,1,7)"},
		{realHdr, "\u00851\u30002\u20033\u0085", "(0,1,3)"},
		{patternHdr, "+1 2", "(0,1,1)"},
		{patternHdr, "2 -0", `mmio: entry 1 out of range: "2 -0"`},
		{patternHdr, "1 2 abc\u2003def", "(0,1,1)"},
	}
	for _, tc := range cases {
		got := ""
		m, err := Read(strings.NewReader(tc.header + tc.entry + "\n"))
		if err != nil {
			got = err.Error()
		} else {
			got = fmt.Sprintf("(%d,%d,%g)", m.RowIdx[0], m.ColIdx[0], m.Val[0])
		}
		if got != tc.want {
			t.Errorf("entry %q: got %s, want %s", tc.entry, got, tc.want)
		}
	}
}

// TestReadCtxAllocs pins ReadCtx's allocation count: entries are split
// and converted in place, so a file costs a fixed number of
// allocations however many entries it holds.
func TestReadCtxAllocs(t *testing.T) {
	const maxAllocs = 20
	for _, pattern := range []bool{true, false} {
		for _, nnz := range []int{1000, 20000} {
			m := &Matrix{Rows: nnz, Cols: nnz, Pattern: pattern}
			for k := 0; k < nnz; k++ {
				m.RowIdx = append(m.RowIdx, int32(k))
				m.ColIdx = append(m.ColIdx, int32((k*7919)%nnz))
				m.Val = append(m.Val, float64(k)/7)
			}
			var buf bytes.Buffer
			if err := Write(&buf, m); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := ReadCtx(context.Background(), bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > maxAllocs {
				t.Errorf("ReadCtx of %d entries (pattern %t): %v allocations, want at most %d", nnz, pattern, allocs, maxAllocs)
			}
		}
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
	if err := h.CSR().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestToHypergraphRejectsMalformedMatrix covers hand-built matrices
// (hyperplex.MatrixToHypergraph takes one from any caller): each bad
// shape is an error naming the offending entry, never a panic or a
// silently dropped entry.
func TestToHypergraphRejectsMalformedMatrix(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    Matrix
		want string
	}{
		{"column past the last", Matrix{Rows: 2, Cols: 2, RowIdx: []int32{0, 1}, ColIdx: []int32{1, 2}}, "entry 1 column 2 out of range [0,2)"},
		{"negative column", Matrix{Rows: 2, Cols: 2, RowIdx: []int32{0}, ColIdx: []int32{-1}}, "entry 0 column -1 out of range [0,2)"},
		{"more column than row indices", Matrix{Rows: 2, Cols: 2, RowIdx: []int32{0}, ColIdx: []int32{0, 1}}, "entry 1 has no row index (1 row indices, 2 column indices)"},
		{"more row than column indices", Matrix{Rows: 2, Cols: 2, RowIdx: []int32{0, 1, 1}, ColIdx: []int32{0}}, "entry 1 has no column index (3 row indices, 1 column indices)"},
		{"row past the last", Matrix{Rows: 2, Cols: 2, RowIdx: []int32{0, 2}, ColIdx: []int32{0, 1}}, "edge 1 member 2 out of range [0,2)"},
		{"negative dimensions", Matrix{Rows: 2, Cols: -3}, "negative dimensions 2 x -3"},
	} {
		var err error
		func() {
			defer func() {
				if x := recover(); x != nil {
					err = fmt.Errorf("panic: %v", x)
				}
			}()
			_, err = ToHypergraph(&tc.m)
		}()
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.HasPrefix(err.Error(), "panic") {
			t.Errorf("%s: err = %v, want an error containing %q", tc.name, err, tc.want)
		}
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
