package store

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"hyperplex/internal/csr"
	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/run"
)

// fpBuild fires on every checkpoint of the streaming store builder.
var fpBuild = failpoint.Register("store.build")

// buildCheckEvery bounds how many records or pins may pass between
// cancellation/budget checkpoints in the builder's own loops (the
// source scanners carry their own per-line checkpoints).
const buildCheckEvery = 256

// nameRAMBytes estimates the long-lived per-name RAM cost beyond the
// name bytes themselves: a string header, a slice slot, a map entry
// and a degree counter.  Charged against MaxAlloc — the builder's RAM
// is O(|V|+|F|), never O(pins).
const nameRAMBytes = 56

// Source is a re-openable input for the streaming builder.  The
// builder reads it twice (count pass, fill pass), so Open must return
// a fresh reader over the same bytes each time; if the content changes
// between passes the build fails with an "input changed" error rather
// than writing a corrupt store.
type Source struct {
	// Format selects the parser: "text" (the hypergraph text format)
	// or "mtx" (Matrix Market coordinate).
	Format string
	Open   func() (io.ReadCloser, error)
}

// FileSource is the Source reading path in the given format.
func FileSource(format, path string) Source {
	return Source{Format: format, Open: func() (io.ReadCloser, error) { return os.Open(path) }}
}

// BuildFile streams src into a store file at dst with the default
// context.
func BuildFile(dst string, src Source) error {
	return BuildFileCtx(context.Background(), dst, src)
}

// BuildFileCtx constructs an on-disk CSR store at dst in two streaming
// passes over src, honoring cancellation, deadline and any run.Budget
// attached to ctx.  Resident memory is O(|V|+|F|) plus fixed buffers;
// the pin arrays are written straight to disk (scattered through a
// read-write mapping where the platform provides one), so an instance
// whose pins exceed a run.MaxAlloc budget still builds.  The write is
// atomic: dst appears only complete, via fsync-and-rename.
func BuildFileCtx(ctx context.Context, dst string, src Source) error {
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, 0); err != nil {
		return err
	}
	switch src.Format {
	case "text":
		return buildText(ctx, meter, dst, src)
	case "mtx":
		return buildMTX(ctx, meter, dst, src)
	default:
		return fmt.Errorf("store: build %s: unknown source format %q (want \"text\" or \"mtx\")", dst, src.Format)
	}
}

// buildTicker carries the builder's interval checkpoint state: pending
// work units accumulate and are charged (with a failpoint probe) every
// buildCheckEvery.
type buildTicker struct {
	pending int64
}

// tickEvery counts one work unit and checkpoints at the interval.
func (b *buildTicker) tickEvery(ctx context.Context, meter *run.Meter) error {
	if b.pending++; b.pending >= buildCheckEvery {
		return b.flush(ctx, meter)
	}
	return nil
}

// flush charges the pending work now.
func (b *buildTicker) flush(ctx context.Context, meter *run.Meter) error {
	if err := failpoint.Inject(fpBuild); err != nil {
		return err
	}
	if err := run.Tick(ctx, meter, b.pending); err != nil {
		return err
	}
	b.pending = 0
	return nil
}

// pinFile is a writable int32 array region inside a temp file: the
// scatter target for the transposed pin array.  Where the platform
// provides it (linux, little-endian) the region is served by a shared
// read-write mapping; everywhere else by pread/pwrite with explicit
// little-endian coding.  base must be page-aligned.
type pinFile struct {
	f      *os.File
	base   int64
	n      int64   // length in int32 entries
	view   []int32 // in-place view when mapped
	mapped []byte  // whole-file mapping backing view
	buf    []byte  // code scratch for the unmapped path
}

// newPinFile views entries [base, base+4n) of f, whose total size is
// fileSize.  Mapping failure silently degrades to pread/pwrite.
func newPinFile(f *os.File, fileSize, base, n int64) *pinFile {
	p := &pinFile{f: f, base: base, n: n, buf: make([]byte, 1<<16)}
	if n > 0 && mmapSupported && nativeLittleEndian {
		if b, err := mapFileRW(f, fileSize); err == nil {
			p.mapped = b
			p.view = int32View(b[base : base+4*n])
		}
	}
	return p
}

// put stores v at entry slot.  Out-of-range slots are an input
// inconsistency, reported rather than written.
func (p *pinFile) put(slot int64, v int32) error {
	if slot < 0 || slot >= p.n {
		return fmt.Errorf("pin slot %d out of range [0,%d)", slot, p.n)
	}
	if p.view != nil {
		p.view[slot] = v
		return nil
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(v))
	_, err := p.f.WriteAt(b[:], p.base+4*slot)
	return err
}

// read fills dst from entries [start, start+len(dst)), checkpointing
// per buffer chunk on the unmapped path.
func (p *pinFile) read(ctx context.Context, meter *run.Meter, start int64, dst []int32) error {
	if p.view != nil {
		copy(dst, p.view[start:start+int64(len(dst))])
		return nil
	}
	for len(dst) > 0 {
		if err := run.Tick(ctx, meter, 1); err != nil {
			return err
		}
		nv := min(len(dst), len(p.buf)/4)
		if _, err := p.f.ReadAt(p.buf[:4*nv], p.base+4*start); err != nil {
			return err
		}
		for i := 0; i < nv; i++ {
			dst[i] = int32(binary.LittleEndian.Uint32(p.buf[4*i:]))
		}
		dst = dst[nv:]
		start += int64(nv)
	}
	return nil
}

// write stores src at entries [start, start+len(src)), checkpointing
// per buffer chunk on the unmapped path.
func (p *pinFile) write(ctx context.Context, meter *run.Meter, start int64, src []int32) error {
	if p.view != nil {
		copy(p.view[start:start+int64(len(src))], src)
		return nil
	}
	for len(src) > 0 {
		if err := run.Tick(ctx, meter, 1); err != nil {
			return err
		}
		nv := min(len(src), len(p.buf)/4)
		for i := 0; i < nv; i++ {
			binary.LittleEndian.PutUint32(p.buf[4*i:], uint32(src[i]))
		}
		if _, err := p.f.WriteAt(p.buf[:4*nv], p.base+4*start); err != nil {
			return err
		}
		src = src[nv:]
		start += int64(nv)
	}
	return nil
}

// close releases the mapping (the file itself belongs to the caller).
// Idempotent.
func (p *pinFile) close() error {
	if p.mapped == nil {
		return nil
	}
	b := p.mapped
	p.mapped, p.view = nil, nil
	return unmapFile(b)
}

// sectionSink writes sections of the final file at their layout
// offsets (in any order) and records their checksums, reusing one
// write buffer across sections.
type sectionSink struct {
	hdr  *header
	tmp  *os.File
	path string
	bw   *bufio.Writer
	cw   *crcWriter
}

// sinkRAMBytes is the fixed buffer cost of a sectionSink, charged
// against MaxAlloc by the builders.
const sinkRAMBytes = 1<<18 + 1<<16

func newSectionSink(hdr *header, tmp *os.File, path string) *sectionSink {
	bw := bufio.NewWriterSize(nil, 1<<18)
	return &sectionSink{hdr: hdr, tmp: tmp, path: path, bw: bw, cw: newCRCWriter(bw)}
}

// begin points the sink at section i.
func (s *sectionSink) begin(i int) {
	s.bw.Reset(io.NewOffsetWriter(s.tmp, s.hdr.sec[i].off))
	s.cw.reset()
}

// finish flushes section i and checks the byte count against the
// layout.
func (s *sectionSink) finish(i int) error {
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("store: build %s section %d: %w", s.path, i, err)
	}
	if s.cw.n != s.hdr.sec[i].size {
		return fmt.Errorf("store: build %s section %d: wrote %d bytes, want %d", s.path, i, s.cw.n, s.hdr.sec[i].size)
	}
	s.hdr.sec[i].crc = s.cw.crc
	return nil
}

// ints writes an entire int32 section in one go.
func (s *sectionSink) ints(ctx context.Context, meter *run.Meter, i int, vals []int32) error {
	if s.hdr.sec[i].size == 0 {
		return nil
	}
	s.begin(i)
	if err := s.cw.writeInt32s(ctx, meter, vals); err != nil {
		return err
	}
	return s.finish(i)
}

// blob writes an entire name-blob section in one go.
func (s *sectionSink) blob(ctx context.Context, meter *run.Meter, i int, names []string) error {
	if s.hdr.sec[i].size == 0 {
		return nil
	}
	s.begin(i)
	if err := s.cw.writeNameBlob(ctx, meter, names); err != nil {
		return err
	}
	return s.finish(i)
}

// fileCRC checksums [off, off+size) of f in budget-checkpointed
// chunks, used for the scattered (non-streamed) VAdj section.
func fileCRC(ctx context.Context, meter *run.Meter, f *os.File, off, size int64, buf []byte) (uint32, error) {
	var crc uint32
	for size > 0 {
		if err := failpoint.Inject(fpBuild); err != nil {
			return 0, err
		}
		if err := run.Tick(ctx, meter, 1); err != nil {
			return 0, err
		}
		n := min(size, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return 0, err
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
		off += n
		size -= n
	}
	return crc, nil
}

// changed formats the error for a source whose second pass disagrees
// with the first.
func changed(dst, format string, a ...any) error {
	return fmt.Errorf("store: build %s: input changed between passes ("+format+")", append([]any{dst}, a...)...)
}

// buildText streams a hypergraph text source into a store file.  Pass
// 1 resolves names and counts degrees (the only RAM the build keeps);
// pass 2 writes the sorted, deduplicated edge-side pins sequentially
// while scattering the vertex-side transpose, exactly reproducing the
// CSR that ReadText builds in RAM.
func buildText(ctx context.Context, meter *run.Meter, dst string, src Source) (err error) {
	bt := &buildTicker{}

	vIndex := make(map[string]int32)
	var vNames []string
	var vDeg []int32
	var eNames []string
	var eDeg []int32
	eIndex := make(map[string]int32)
	var scratch []int32
	scratchCap := 0
	pins := int64(0)

	// newVertex indexes a name the caller found missing from vIndex.
	newVertex := func(name string) (int32, error) {
		if int64(len(vNames)) >= maxInt32 {
			return 0, fmt.Errorf("store: build %s: vertex count overflows the int32 index space", dst)
		}
		if aerr := meter.Alloc(int64(len(name)) + nameRAMBytes); aerr != nil {
			return 0, aerr
		}
		v := csr.MustInt32(len(vNames))
		vNames = append(vNames, name)
		vDeg = append(vDeg, 0)
		vIndex[name] = v
		return v, nil
	}
	// gather resolves one record's members into scratch; dedup sorts
	// and collapses them, mirroring Builder.AddEdgeIDs.
	dedup := func() []int32 {
		slices.Sort(scratch)
		return slices.Compact(scratch)
	}

	// Pass 1: count.
	rc, err := src.Open()
	if err != nil {
		return fmt.Errorf("store: build %s: open source: %w", dst, err)
	}
	scanErr := hypergraph.ScanTextCtx(ctx, rc, hypergraph.TextEvents{
		Vertex: func(name string) error {
			if terr := bt.tickEvery(ctx, meter); terr != nil {
				return terr
			}
			if _, ok := vIndex[name]; ok {
				return nil
			}
			_, verr := newVertex(name)
			return verr
		},
		Edge: func(nameBytes []byte, members [][]byte) error {
			f := len(eNames)
			if int64(f) >= maxInt32 {
				return fmt.Errorf("store: build %s: hyperedge count overflows the int32 index space", dst)
			}
			if prev, dup := eIndex[string(nameBytes)]; dup {
				return fmt.Errorf("hypergraph: duplicate hyperedge name %q (edges %d and %d)", nameBytes, prev, f)
			}
			name := string(nameBytes)
			if name != "" {
				eIndex[name] = int32(f)
			}
			if aerr := meter.Alloc(int64(len(name)) + nameRAMBytes); aerr != nil {
				return aerr
			}
			scratch = scratch[:0]
			for _, m := range members {
				if terr := bt.tickEvery(ctx, meter); terr != nil {
					return terr
				}
				v, ok := vIndex[string(m)]
				if !ok {
					var verr error
					if v, verr = newVertex(string(m)); verr != nil {
						return verr
					}
				}
				scratch = append(scratch, v)
			}
			if c := cap(scratch); c > scratchCap {
				if aerr := meter.Alloc(int64(4 * (c - scratchCap))); aerr != nil {
					return aerr
				}
				scratchCap = c
			}
			uniq := dedup()
			for _, v := range uniq {
				vDeg[v]++
			}
			pins += int64(len(uniq))
			if pins > maxInt32 {
				return fmt.Errorf("store: build %s: %d pins overflow the int32 index space", dst, pins)
			}
			nu := len(uniq)
			eNames = append(eNames, name)
			eDeg = append(eDeg, int32(nu))
			return nil
		},
	})
	cerr := rc.Close()
	if scanErr != nil {
		return scanErr
	}
	if cerr != nil {
		return fmt.Errorf("store: build %s: close source: %w", dst, cerr)
	}

	numV, numE := int64(len(vNames)), int64(len(eNames))
	if aerr := meter.Alloc(4 * (3*numV + 2*numE + 2)); aerr != nil {
		return aerr
	}
	vOff := make([]int32, numV+1)
	for v := range vDeg {
		vOff[v+1] = vOff[v] + vDeg[v]
	}
	eOff := make([]int32, numE+1)
	for f := range eDeg {
		eOff[f+1] = eOff[f] + eDeg[f]
	}
	vNameOff, vBlob, err := nameOffsets("vertex", vNames)
	if err != nil {
		return err
	}
	eNameOff, eBlob, err := nameOffsets("edge", eNames)
	if err != nil {
		return err
	}
	hdr := computeLayout(numV, numE, pins, vBlob, eBlob)

	tmp, err := os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: build %s: create temp: %w", dst, err)
	}
	finalized := false
	defer func() {
		if !finalized {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := tmp.Truncate(hdr.fileSize()); err != nil {
		return fmt.Errorf("store: build %s: size temp: %w", dst, err)
	}
	if aerr := meter.Alloc(sinkRAMBytes); aerr != nil {
		return aerr
	}
	sink := newSectionSink(&hdr, tmp, dst)
	if err := sink.ints(ctx, meter, secVOff, vOff); err != nil {
		return err
	}
	if err := sink.ints(ctx, meter, secEOff, eOff); err != nil {
		return err
	}
	if err := sink.ints(ctx, meter, secVNameOff, vNameOff); err != nil {
		return err
	}
	if err := sink.blob(ctx, meter, secVNameBlob, vNames); err != nil {
		return err
	}
	if err := sink.ints(ctx, meter, secENameOff, eNameOff); err != nil {
		return err
	}
	if err := sink.blob(ctx, meter, secENameBlob, eNames); err != nil {
		return err
	}

	// Pass 2: fill.  EAdj streams through the sink; VAdj is scattered
	// through the pin file at each vertex's cursor.
	if aerr := meter.Alloc(4*numV + 1<<16); aerr != nil {
		return aerr
	}
	vadj := newPinFile(tmp, hdr.fileSize(), hdr.sec[secVAdj].off, pins)
	defer vadj.close()
	vCursor := make([]int32, numV)
	copy(vCursor, vOff[:numV])
	sink.begin(secEAdj)
	rc2, err := src.Open()
	if err != nil {
		return fmt.Errorf("store: build %s: reopen source: %w", dst, err)
	}
	f := int64(0)
	scanErr = hypergraph.ScanTextCtx(ctx, rc2, hypergraph.TextEvents{
		Vertex: func(name string) error {
			if terr := bt.tickEvery(ctx, meter); terr != nil {
				return terr
			}
			if _, ok := vIndex[name]; !ok {
				return changed(dst, "unknown vertex %q", name)
			}
			return nil
		},
		Edge: func(name []byte, members [][]byte) error {
			if f >= numE {
				return changed(dst, "extra hyperedge %q", name)
			}
			scratch = scratch[:0]
			for _, m := range members {
				if terr := bt.tickEvery(ctx, meter); terr != nil {
					return terr
				}
				v, ok := vIndex[string(m)]
				if !ok {
					return changed(dst, "unknown vertex %q", m)
				}
				scratch = append(scratch, v)
			}
			uniq := dedup()
			if int64(len(uniq)) != int64(eDeg[f]) {
				return changed(dst, "hyperedge %d has degree %d, counted %d", f, len(uniq), eDeg[f])
			}
			if werr := sink.cw.writeInt32s(ctx, meter, uniq); werr != nil {
				return werr
			}
			for _, v := range uniq {
				if terr := bt.tickEvery(ctx, meter); terr != nil {
					return terr
				}
				if perr := vadj.put(int64(vCursor[v]), int32(f)); perr != nil {
					return fmt.Errorf("store: build %s: scatter: %w", dst, perr)
				}
				vCursor[v]++
			}
			f++
			return nil
		},
	})
	cerr = rc2.Close()
	if scanErr != nil {
		return scanErr
	}
	if cerr != nil {
		return fmt.Errorf("store: build %s: close source: %w", dst, cerr)
	}
	if f != numE {
		return changed(dst, "%d hyperedges, counted %d", f, numE)
	}
	if err := sink.finish(secEAdj); err != nil {
		return err
	}
	for v := range vCursor {
		if vCursor[v] != vOff[v+1] {
			return changed(dst, "vertex %d degree shifted", v)
		}
	}
	if err := vadj.close(); err != nil {
		return fmt.Errorf("store: build %s: unmap: %w", dst, err)
	}
	crcV, err := fileCRC(ctx, meter, tmp, hdr.sec[secVAdj].off, hdr.sec[secVAdj].size, sink.cw.buf)
	if err != nil {
		return err
	}
	hdr.sec[secVAdj].crc = crcV
	if err := finalizeAtomic(tmp, sink.bw, &hdr, dst); err != nil {
		return err
	}
	finalized = true
	return nil
}

// buildMTX streams a Matrix Market coordinate source into a store
// file: rows become vertices, columns hyperedges, exactly as
// mmio.ToHypergraph converts in RAM (duplicates collapse, empty
// columns stay as empty hyperedges), but the built store carries no
// names.  The raw column-grouped pins go to a scratch file first, are
// compacted (sort + dedup) in place, then transposed into the final
// file; RAM stays O(rows+cols) plus the largest raw column.
func buildMTX(ctx context.Context, meter *run.Meter, dst string, src Source) (err error) {
	bt := &buildTicker{}

	// Pass 1: dimensions and raw per-column counts (mirrored entries
	// of a symmetric file included).
	var eDegRaw []int32
	var numV, numE int64
	sized := false
	rawPins := int64(0)
	rc, err := src.Open()
	if err != nil {
		return fmt.Errorf("store: build %s: open source: %w", dst, err)
	}
	_, scanErr := mmio.ScanCtx(ctx, rc, mmio.MatrixEvents{
		Size: func(rows, cols, nnz int) error {
			if int64(rows) >= maxInt32 || int64(cols) >= maxInt32 {
				return fmt.Errorf("store: build %s: %d x %d dimensions overflow the int32 index space", dst, rows, cols)
			}
			numV, numE, sized = int64(rows), int64(cols), true
			if aerr := meter.Alloc(4 * numE); aerr != nil {
				return aerr
			}
			eDegRaw = make([]int32, cols)
			return nil
		},
		Entry: func(i, j int32, v float64) error {
			if rawPins >= maxInt32 {
				return fmt.Errorf("store: build %s: pin count overflows the int32 index space", dst)
			}
			eDegRaw[j]++
			rawPins++
			return nil
		},
	})
	cerr := rc.Close()
	if scanErr != nil {
		return scanErr
	}
	if cerr != nil {
		return fmt.Errorf("store: build %s: close source: %w", dst, cerr)
	}
	if !sized {
		return fmt.Errorf("store: build %s: source delivered no size line", dst)
	}

	if aerr := meter.Alloc(4*(2*numE+1) + 1<<16); aerr != nil { // offsets, cursors, pinFile code buffer
		return aerr
	}
	eOffRaw := make([]int32, numE+1)
	maxColRaw := int64(0)
	for j := range eDegRaw {
		eOffRaw[j+1] = eOffRaw[j] + eDegRaw[j]
		if int64(eDegRaw[j]) > maxColRaw {
			maxColRaw = int64(eDegRaw[j])
		}
	}
	cursorRaw := make([]int32, numE)
	copy(cursorRaw, eOffRaw[:numE])

	// Scratch file: raw pins grouped by column.
	scr, err := os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".scratch-*")
	if err != nil {
		return fmt.Errorf("store: build %s: create scratch: %w", dst, err)
	}
	defer func() {
		scr.Close()
		os.Remove(scr.Name())
	}()
	if err := scr.Truncate(4 * rawPins); err != nil {
		return fmt.Errorf("store: build %s: size scratch: %w", dst, err)
	}
	raw := newPinFile(scr, 4*rawPins, 0, rawPins)
	defer raw.close()

	// Pass 2: scatter raw row indices by column.
	rc2, err := src.Open()
	if err != nil {
		return fmt.Errorf("store: build %s: reopen source: %w", dst, err)
	}
	_, scanErr = mmio.ScanCtx(ctx, rc2, mmio.MatrixEvents{
		Size: func(rows, cols, nnz int) error {
			if int64(rows) != numV || int64(cols) != numE {
				return changed(dst, "size %dx%d, counted %dx%d", rows, cols, numV, numE)
			}
			return nil
		},
		Entry: func(i, j int32, v float64) error {
			if terr := bt.tickEvery(ctx, meter); terr != nil {
				return terr
			}
			slot := cursorRaw[j]
			if slot >= eOffRaw[j+1] {
				return changed(dst, "column %d gained entries", j)
			}
			cursorRaw[j]++
			if perr := raw.put(int64(slot), i); perr != nil {
				return fmt.Errorf("store: build %s: scratch scatter: %w", dst, perr)
			}
			return nil
		},
	})
	cerr = rc2.Close()
	if scanErr != nil {
		return scanErr
	}
	if cerr != nil {
		return fmt.Errorf("store: build %s: close source: %w", dst, cerr)
	}
	for j := range cursorRaw {
		if cursorRaw[j] != eOffRaw[j+1] {
			return changed(dst, "column %d lost entries", j)
		}
	}

	// Compact each column in place: sort, collapse duplicates, pack
	// left.  The write cursor never passes the read cursor because
	// columns only shrink.
	if aerr := meter.Alloc(4 * (maxColRaw + numE + numV)); aerr != nil {
		return aerr
	}
	rowBuf := make([]int32, maxColRaw)
	eDeg := make([]int32, numE)
	vDeg := make([]int32, numV)
	write := int64(0)
	for j := int64(0); j < numE; j++ {
		if terr := bt.tickEvery(ctx, meter); terr != nil {
			return terr
		}
		col := rowBuf[:eOffRaw[j+1]-eOffRaw[j]]
		if rerr := raw.read(ctx, meter, int64(eOffRaw[j]), col); rerr != nil {
			return fmt.Errorf("store: build %s: scratch read: %w", dst, rerr)
		}
		slices.Sort(col)
		uniq := slices.Compact(col)
		for _, v := range uniq {
			vDeg[v]++
		}
		if werr := raw.write(ctx, meter, write, uniq); werr != nil {
			return fmt.Errorf("store: build %s: scratch write: %w", dst, werr)
		}
		nu := len(uniq)
		eDeg[j] = int32(nu)
		write += int64(nu)
	}
	pins := write

	if aerr := meter.Alloc(4*(2*numV+numE+2) + 1<<16); aerr != nil { // offsets, cursors, vadj pinFile code buffer
		return aerr
	}
	vOff := make([]int32, numV+1)
	for v := range vDeg {
		vOff[v+1] = vOff[v] + vDeg[v]
	}
	eOff := make([]int32, numE+1)
	for j := range eDeg {
		eOff[j+1] = eOff[j] + eDeg[j]
	}
	vCursor := make([]int32, numV)
	copy(vCursor, vOff[:numV])
	hdr := computeLayout(numV, numE, pins, -1, -1)

	tmp, err := os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: build %s: create temp: %w", dst, err)
	}
	finalized := false
	defer func() {
		if !finalized {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := tmp.Truncate(hdr.fileSize()); err != nil {
		return fmt.Errorf("store: build %s: size temp: %w", dst, err)
	}
	if aerr := meter.Alloc(sinkRAMBytes); aerr != nil {
		return aerr
	}
	sink := newSectionSink(&hdr, tmp, dst)
	if err := sink.ints(ctx, meter, secVOff, vOff); err != nil {
		return err
	}
	if err := sink.ints(ctx, meter, secEOff, eOff); err != nil {
		return err
	}

	// Transpose: stream the compacted columns into EAdj while
	// scattering the vertex side.
	vadj := newPinFile(tmp, hdr.fileSize(), hdr.sec[secVAdj].off, pins)
	defer vadj.close()
	sink.begin(secEAdj)
	for j := int64(0); j < numE; j++ {
		if terr := bt.tickEvery(ctx, meter); terr != nil {
			return terr
		}
		col := rowBuf[:eDeg[j]]
		if rerr := raw.read(ctx, meter, int64(eOff[j]), col); rerr != nil {
			return fmt.Errorf("store: build %s: scratch read: %w", dst, rerr)
		}
		if werr := sink.cw.writeInt32s(ctx, meter, col); werr != nil {
			return werr
		}
		for _, v := range col {
			if terr := bt.tickEvery(ctx, meter); terr != nil {
				return terr
			}
			if perr := vadj.put(int64(vCursor[v]), int32(j)); perr != nil {
				return fmt.Errorf("store: build %s: scatter: %w", dst, perr)
			}
			vCursor[v]++
		}
	}
	if err := sink.finish(secEAdj); err != nil {
		return err
	}
	for v := range vCursor {
		if vCursor[v] != vOff[v+1] {
			return fmt.Errorf("store: build %s: vertex %d transpose cursor off", dst, v)
		}
	}
	if err := vadj.close(); err != nil {
		return fmt.Errorf("store: build %s: unmap: %w", dst, err)
	}
	crcV, err := fileCRC(ctx, meter, tmp, hdr.sec[secVAdj].off, hdr.sec[secVAdj].size, sink.cw.buf)
	if err != nil {
		return err
	}
	hdr.sec[secVAdj].crc = crcV
	if err := finalizeAtomic(tmp, sink.bw, &hdr, dst); err != nil {
		return err
	}
	finalized = true
	return nil
}
