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
// (row + col int32 plus a float64), charged against MaxAlloc.
const entryBytes = 16

// maxPresize caps how many entries ReadCtx allocates up front from the
// size line's promise, so a hostile header cannot demand more than
// 16 MiB before a single entry has been read.
const maxPresize = 1 << 20

// Matrix is a sparse matrix in coordinate (triplet) form.  Indices are
// 0-based in memory (the on-disk format is 1-based).  Symmetric input
// is expanded to general form at read time.
type Matrix struct {
	Rows, Cols int
	// RowIdx[k], ColIdx[k], Val[k] describe the k-th stored entry.
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
	// Size is called once with the validated size-line dimensions,
	// before any Entry call, so consumers can size allocations.  Nil
	// skips delivery.
	Size func(rows, cols, nnz int) error
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
		if err := ev.Size(rows, cols, nnz); err != nil {
			return nil, err
		}
	}
	wantFields := 3
	if info.Pattern {
		wantFields = 2
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
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		fields = hypergraph.Fields(fields, line)
		if len(fields) < wantFields {
			return nil, fmt.Errorf("mmio: entry %d malformed: %q", read+1, line)
		}
		// string(b) does not escape: a field of up to 32 bytes is
		// converted without allocating.
		i, err1 := strconv.Atoi(string(fields[0]))
		j, err2 := strconv.Atoi(string(fields[1]))
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("mmio: entry %d malformed: %q", read+1, line)
		}
		// A symmetric file also stores the mirror (j, i), which a
		// non-square size line may not hold.
		if i < 1 || i > rows || j < 1 || j > cols || (info.Symmetric && (j > rows || i > cols)) {
			return nil, fmt.Errorf("mmio: entry %d out of range: %q", read+1, line)
		}
		v := 1.0
		if !info.Pattern {
			var err error
			v, err = strconv.ParseFloat(string(fields[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: entry %d bad value: %q", read+1, line)
			}
		}
		if ev.Entry != nil {
			if err := ev.Entry(int32(i-1), int32(j-1), v); err != nil {
				return nil, err
			}
			if info.Symmetric && i != j {
				if err := ev.Entry(int32(j-1), int32(i-1), v); err != nil {
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
// On any error it returns (nil, err).
func ReadCtx(ctx context.Context, r io.Reader) (*Matrix, error) {
	meter := run.MeterFrom(ctx)
	m := &Matrix{}
	charged := 0 // entries whose bytes the budget has been charged for
	info, err := ScanCtx(ctx, r, MatrixEvents{
		Size: func(_, _, nnz int) error {
			n := min(nnz, maxPresize)
			if err := meter.Alloc(int64(n) * entryBytes); err != nil {
				return err
			}
			charged = n
			m.RowIdx = make([]int32, 0, n)
			m.ColIdx = make([]int32, 0, n)
			m.Val = make([]float64, 0, n)
			return nil
		},
		Entry: func(i, j int32, v float64) error {
			if len(m.RowIdx) == charged {
				if err := meter.Alloc(readCheckEvery * entryBytes); err != nil {
					return err
				}
				charged += readCheckEvery
			}
			m.RowIdx = append(m.RowIdx, i)
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, v)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	m.Rows, m.Cols, m.Pattern = info.Rows, info.Cols, info.Pattern
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
// are retained so |F| matches the matrix dimension.
func ToHypergraph(m *Matrix) (*hypergraph.Hypergraph, error) {
	// Bucket the entries by column: every column row is carved, at its
	// exact capacity, from one flat array, so the appends never grow.
	off := make([]int, m.Cols+1)
	for _, j := range m.ColIdx {
		off[j+1]++
	}
	for j := 0; j < m.Cols; j++ {
		off[j+1] += off[j]
	}
	flat := make([]int32, m.NNZ())
	cols := make([][]int32, m.Cols)
	for j := range cols {
		cols[j] = flat[off[j]:off[j]:off[j+1]]
	}
	for k, j := range m.ColIdx {
		cols[j] = append(cols[j], m.RowIdx[k])
	}
	return hypergraph.FromEdgeSets(m.Rows, cols)
}

// FromHypergraph converts a hypergraph back to a pattern matrix
// (vertices → rows, hyperedges → columns).
func FromHypergraph(h *hypergraph.Hypergraph) *Matrix {
	m := &Matrix{Rows: h.NumVertices(), Cols: h.NumEdges(), Pattern: true}
	for f := 0; f < h.NumEdges(); f++ {
		for _, v := range h.Vertices(f) {
			m.RowIdx = append(m.RowIdx, v)
			m.ColIdx = append(m.ColIdx, int32(f))
			m.Val = append(m.Val, 1)
		}
	}
	return m
}
