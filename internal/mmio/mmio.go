// Package mmio reads and writes sparse matrices in the NIST Matrix
// Market coordinate format and converts them to hypergraphs.  Table 1
// of the paper runs the hypergraph core algorithm on matrices from the
// Matrix Market collection (math.nist.gov/MatrixMarket); this package
// supplies the interchange format, and internal/gen synthesizes
// matrices at the published scales since the originals cannot be
// downloaded in an offline build.
package mmio

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
)

// fpReadEntry fires on every checkpoint of the coordinate-entry loop.
var fpReadEntry = failpoint.Register("mmio.read.entry")

// readCheckEvery bounds how many coordinate entries may pass between
// cancellation/budget checkpoints in ReadCtx.
const readCheckEvery = 256

// entryBytes is the estimated long-lived cost of one stored entry
// (row + col int32 plus a float64), charged against MaxAlloc; an entry
// of a pattern file holds no value and costs patternEntryBytes.
const (
	entryBytes        = 16
	patternEntryBytes = 8
)

// maxPresize caps how many entries ReadCtx allocates up front from the
// size line's promise, so a hostile header cannot demand more than
// 16 MiB before a single entry has been read.
const maxPresize = 1 << 20

// Matrix is a sparse matrix in coordinate (triplet) form.  Indices are
// 0-based in memory (the on-disk format is 1-based).  Symmetric input
// is expanded to general form at read time.
type Matrix struct {
	Rows, Cols int
	// RowIdx[k], ColIdx[k], Val[k] describe the k-th stored entry.  A
	// pattern matrix holds no values: its Val is nil, and every entry
	// stands for a one.
	RowIdx []int32
	ColIdx []int32
	Val    []float64
	// Pattern records whether the source had no numeric values.
	Pattern bool
}

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.RowIdx) }

// maxIndex caps the matrix dimensions a size line may declare: the
// downstream representations (Matrix, the CSR substrate, the store
// file format) index rows and columns with int32, so a larger
// dimension must fail loudly here instead of truncating in the
// int32(i-1) narrowings below.
const maxIndex = 1<<31 - 1

// Info is the parsed header of a Matrix Market coordinate file.
type Info struct {
	Rows, Cols int
	// NNZ is the stored entry count promised by the size line (before
	// symmetric expansion).
	NNZ       int
	Pattern   bool
	Symmetric bool
}

// MatrixEvents receives the entries of a coordinate file as ScanCtx
// parses them.
type MatrixEvents struct {
	// Size is called once with the validated header and size line,
	// before any Entry call, so consumers can size allocations.  Nil
	// skips delivery.
	Size func(info *Info) error
	// Entry is called per stored entry with 0-based indices; for a
	// symmetric file each off-diagonal entry is delivered twice,
	// mirrored, exactly as Read expands it.  Nil skips delivery.
	// Consumers that retain entries charge their bytes themselves.
	Entry func(i, j int32, v float64) error
}

// Scan parses a Matrix Market file as a stream, delivering entries to
// ev without building a Matrix.  Read and the out-of-core store
// builder share this scanner.  Supported headers:
//
//	%%MatrixMarket matrix coordinate real|integer|pattern general|symmetric
func Scan(r io.Reader, ev MatrixEvents) (*Info, error) {
	return ScanCtx(context.Background(), r, ev)
}

// ScanCtx is Scan honoring cancellation, deadline and any run.Budget
// attached to ctx, checked at entry and at bounded line intervals (one
// step per line).
func ScanCtx(ctx context.Context, r io.Reader, ev MatrixEvents) (*Info, error) {
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, 0); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)

	if !sc.Scan() {
		return nil, fmt.Errorf("mmio: empty input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("mmio: bad header %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("mmio: unsupported storage %q (only coordinate)", header[2])
	}
	field, sym := header[3], header[4]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("mmio: unsupported field type %q", field)
	}
	switch sym {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("mmio: unsupported symmetry %q", sym)
	}

	// Skip comments, read the size line.  Each header line is charged:
	// the comment run before the size line is unbounded input.
	var sizeLine string
	for sc.Scan() {
		if err := run.Tick(ctx, meter, 1); err != nil {
			return nil, err
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		sizeLine = string(line)
		break
	}
	if sizeLine == "" {
		return nil, fmt.Errorf("mmio: missing size line")
	}
	dims := strings.Fields(sizeLine)
	if len(dims) != 3 {
		return nil, fmt.Errorf("mmio: bad size line %q", sizeLine)
	}
	rows, err1 := strconv.Atoi(dims[0])
	cols, err2 := strconv.Atoi(dims[1])
	nnz, err3 := strconv.Atoi(dims[2])
	if err1 != nil || err2 != nil || err3 != nil || rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("mmio: bad size line %q", sizeLine)
	}
	if rows > maxIndex || cols > maxIndex {
		return nil, fmt.Errorf("mmio: %d x %d dimensions overflow the int32 index space", rows, cols)
	}
	info := &Info{
		Rows:      rows,
		Cols:      cols,
		NNZ:       nnz,
		Pattern:   field == "pattern",
		Symmetric: sym == "symmetric",
	}
	if ev.Size != nil {
		if err := ev.Size(info); err != nil {
			return nil, err
		}
	}
	var fields [][]byte
	read, scanned := 0, 0
	for sc.Scan() {
		// The checkpoint is keyed on scanned lines, not parsed entries:
		// a long run of blank or comment lines must not spin past the
		// budget or a cancelled context unseen.
		if scanned++; scanned%readCheckEvery == 0 {
			if err := failpoint.Inject(fpReadEntry); err != nil {
				return nil, err
			}
			if err := run.Tick(ctx, meter, readCheckEvery); err != nil {
				return nil, err
			}
		}
		line := sc.Bytes()
		i, j, v, ok := fastEntry(line, info)
		if !ok {
			line = bytes.TrimSpace(line)
			if len(line) == 0 || line[0] == '%' {
				continue
			}
			var fault string
			if i, j, v, fields, fault = parseEntry(line, fields, info); fault != "" {
				return nil, fmt.Errorf("mmio: entry %d %s: %q", read+1, fault, line)
			}
		}
		if ev.Entry != nil {
			if err := ev.Entry(i, j, v); err != nil {
				return nil, err
			}
			if info.Symmetric && i != j {
				if err := ev.Entry(j, i, v); err != nil {
					return nil, err
				}
			}
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mmio: read: %w", err)
	}
	if read != nnz {
		return nil, fmt.Errorf("mmio: read %d entries, header promised %d", read, nnz)
	}
	return info, nil
}

// inRange reports whether the 1-based entry (i, j) lies inside the
// size line, and in a symmetric file its mirror (j, i) too, which a
// non-square size line may not hold.
func (in *Info) inRange(i, j int) bool {
	return i >= 1 && i <= in.Rows && j >= 1 && j <= in.Cols && (!in.Symmetric || (j <= in.Rows && i <= in.Cols))
}

// fastEntry parses the common entry line straight from the scanner's
// bytes: two unsigned decimal indices of at most 10 digits and, in a
// real or integer file, one value field of printable ASCII, separated
// by blanks (space or tab), with blanks allowed at either end.  It
// accepts the line only when both indices are in range, the mirror of
// a symmetric entry included, and strconv.ParseFloat takes the value,
// returning the 0-based indices and the value exactly as parseEntry
// would.  Every other line, a blank or comment line, a sign, a longer
// digit run, a byte past ASCII, an extra field or any fault, is !ok
// and left to parseEntry, so the entries read and the error texts do
// not depend on which parser took a line.
//
//hyperplexvet:hotpath
func fastEntry(line []byte, info *Info) (i, j int32, v float64, ok bool) {
	r, p, ok1 := decimal(line, skipBlanks(line, 0))
	q := skipBlanks(line, p)
	if !ok1 || q == p {
		return 0, 0, 0, false
	}
	c, p, ok2 := decimal(line, q)
	if !ok2 || !info.inRange(r, c) {
		return 0, 0, 0, false
	}
	q = skipBlanks(line, p)
	v = 1
	if !info.Pattern {
		start := q
		for q < len(line) && line[q] > ' ' && line[q] < 0x7f {
			q++
		}
		// The value must follow a blank and hold at least one byte.
		if start == p || start == q {
			return 0, 0, 0, false
		}
		// string(b) does not escape: a field of up to 32 bytes is
		// converted without allocating.
		var err error
		if v, err = strconv.ParseFloat(string(line[start:q]), 64); err != nil {
			return 0, 0, 0, false
		}
		q = skipBlanks(line, q)
	}
	if q != len(line) {
		return 0, 0, 0, false
	}
	return int32(r - 1), int32(c - 1), v, true
}

// skipBlanks returns the position of the first byte at or after p in
// line that is not a space or a tab.
func skipBlanks(line []byte, p int) int {
	for p < len(line) && (line[p] == ' ' || line[p] == '\t') {
		p++
	}
	return p
}

// decimal reads the run of ASCII digits at line[p:] and returns its
// value and the position past it; a run that is empty or longer than
// 10 digits is !ok.
func decimal(line []byte, p int) (n, end int, ok bool) {
	run := line[p:min(p+11, len(line))]
	k := 0
	for ; k < len(run) && run[k]-'0' < 10; k++ {
		n = n*10 + int(run[k]-'0')
	}
	return n, p + k, k > 0 && k <= 10
}

// parseEntry is the general parse of an entry line, trimmed and
// neither blank nor a comment.  The line is split at any Unicode white
// space (hypergraph.Fields, reusing fields), the indices are converted
// by strconv.Atoi, so they may carry a sign, and range-checked, and a
// real or integer file's value is converted by strconv.ParseFloat;
// fields past the ones the field type reads are ignored.  It returns
// the 0-based indices and the value with the split buffer, or the
// fault ("malformed", "out of range" or "bad value") that rejects the
// line.
func parseEntry(line []byte, fields [][]byte, info *Info) (i, j int32, v float64, _ [][]byte, fault string) {
	fields = hypergraph.Fields(fields, line)
	want := 3
	if info.Pattern {
		want = 2
	}
	if len(fields) < want {
		return 0, 0, 0, fields, "malformed"
	}
	// string(b) does not escape: a field of up to 32 bytes is
	// converted without allocating.
	r, err1 := strconv.Atoi(string(fields[0]))
	c, err2 := strconv.Atoi(string(fields[1]))
	if err1 != nil || err2 != nil {
		return 0, 0, 0, fields, "malformed"
	}
	if !info.inRange(r, c) {
		return 0, 0, 0, fields, "out of range"
	}
	v = 1
	if !info.Pattern {
		var err error
		if v, err = strconv.ParseFloat(string(fields[2]), 64); err != nil {
			return 0, 0, 0, fields, "bad value"
		}
	}
	return int32(r - 1), int32(c - 1), v, fields, ""
}

// Read parses a Matrix Market file.  Supported headers:
//
//	%%MatrixMarket matrix coordinate real|integer|pattern general|symmetric
//
// Symmetric matrices are expanded (off-diagonal entries mirrored).
func Read(r io.Reader) (*Matrix, error) {
	return ReadCtx(context.Background(), r)
}

// ReadCtx is Read honoring cancellation, deadline and any run.Budget
// attached to ctx, checked at entry and at bounded entry intervals
// (one step per line, and a fixed per-entry allocation estimate per
// stored entry).  The entry arrays are sized from the size line, up to
// maxPresize entries, whose bytes are charged before they are
// allocated; entries beyond them are charged in blocks as they arrive.
// A pattern file's entries keep no values.  On any error it returns
// (nil, err).
func ReadCtx(ctx context.Context, r io.Reader) (*Matrix, error) {
	meter := run.MeterFrom(ctx)
	m := &Matrix{}
	perEntry := int64(entryBytes)
	charged := 0 // entries whose bytes the budget has been charged for
	_, err := ScanCtx(ctx, r, MatrixEvents{
		Size: func(info *Info) error {
			m.Rows, m.Cols, m.Pattern = info.Rows, info.Cols, info.Pattern
			if m.Pattern {
				perEntry = patternEntryBytes
			}
			n := min(info.NNZ, maxPresize)
			if err := meter.Alloc(int64(n) * perEntry); err != nil {
				return err
			}
			charged = n
			m.RowIdx = make([]int32, 0, n)
			m.ColIdx = make([]int32, 0, n)
			if !m.Pattern {
				m.Val = make([]float64, 0, n)
			}
			return nil
		},
		Entry: func(i, j int32, v float64) error {
			if len(m.RowIdx) == charged {
				if err := meter.Alloc(readCheckEvery * perEntry); err != nil {
					return err
				}
				charged += readCheckEvery
			}
			m.RowIdx = append(m.RowIdx, i)
			m.ColIdx = append(m.ColIdx, j)
			if !m.Pattern {
				m.Val = append(m.Val, v)
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Write emits m in general coordinate form (real, or pattern when
// m.Pattern is set).
func Write(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	field := "real"
	if m.Pattern {
		field = "pattern"
	}
	fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate %s general\n", field)
	fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ())
	for k := 0; k < m.NNZ(); k++ {
		if m.Pattern {
			fmt.Fprintf(bw, "%d %d\n", m.RowIdx[k]+1, m.ColIdx[k]+1)
		} else {
			fmt.Fprintf(bw, "%d %d %.17g\n", m.RowIdx[k]+1, m.ColIdx[k]+1, m.Val[k])
		}
	}
	return bw.Flush()
}

// ToHypergraph converts a sparse matrix to the hypergraph used by the
// paper's Table 1: rows become vertices and columns become hyperedges
// (a column's hyperedge contains the rows where it has a nonzero).
// Duplicate entries collapse; empty columns become empty hyperedges and
// are retained so |F| matches the matrix dimension.  A hand-built m
// with negative dimensions, index slices of unequal length or an index
// outside the dimensions is an error; the last two name the entry.
func ToHypergraph(m *Matrix) (*hypergraph.Hypergraph, error) {
	if m.Rows < 0 || m.Cols < 0 {
		return nil, fmt.Errorf("mmio: negative dimensions %d x %d", m.Rows, m.Cols)
	}
	if nr, nc := len(m.RowIdx), len(m.ColIdx); nr != nc {
		missing := "row"
		if nr > nc {
			missing = "column"
		}
		return nil, fmt.Errorf("mmio: entry %d has no %s index (%d row indices, %d column indices)", min(nr, nc), missing, nr, nc)
	}
	if m.NNZ() > math.MaxInt32 {
		return nil, fmt.Errorf("mmio: %d entries: %w", m.NNZ(), hypergraph.ErrPinSpace)
	}
	// Bucket the entries by column into one flat array: count each
	// column's entries at eOff[j+1], turn the counts into row starts,
	// scatter with eOff[j] as column j's cursor, which leaves it at the
	// column's end, and shift the offsets back by one.  FromRows takes
	// both arrays and sorts and compacts each column in place.
	eOff := make([]int32, m.Cols+1)
	for k, j := range m.ColIdx {
		if j < 0 || int(j) >= m.Cols {
			return nil, fmt.Errorf("mmio: entry %d column %d out of range [0,%d)", k, j, m.Cols)
		}
		eOff[j+1]++
	}
	for j := 0; j < m.Cols; j++ {
		eOff[j+1] += eOff[j]
	}
	eAdj := make([]int32, m.NNZ())
	for k, j := range m.ColIdx {
		eAdj[eOff[j]] = m.RowIdx[k]
		eOff[j]++
	}
	copy(eOff[1:], eOff[:m.Cols])
	eOff[0] = 0
	return hypergraph.FromRows(m.Rows, eOff, eAdj)
}

// FromHypergraph converts a hypergraph back to a pattern matrix
// (vertices → rows, hyperedges → columns).
func FromHypergraph(h *hypergraph.Hypergraph) *Matrix {
	m := &Matrix{Rows: h.NumVertices(), Cols: h.NumEdges(), Pattern: true}
	for f := 0; f < h.NumEdges(); f++ {
		for _, v := range h.Vertices(f) {
			m.RowIdx = append(m.RowIdx, v)
			m.ColIdx = append(m.ColIdx, int32(f))
		}
	}
	return m
}
