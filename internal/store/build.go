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

// Source is a re-openable input for the streaming builder.  A text
// build reads it once; an mtx build reads it twice (count pass,
// scatter pass), so Open must return a fresh reader over the same
// bytes each time, and an mtx source whose content changes between
// the passes fails the build with an "input changed" error rather than
// a corrupt store.
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

// BuildFileCtx constructs an on-disk CSR store at dst by streaming
// src, honoring cancellation, deadline and any run.Budget attached to
// ctx.  Resident memory is O(|V|+|F|) plus fixed buffers and the
// largest hyperedge; the pins go to a scratch file and from there
// straight into the store (scattered through a read-write mapping
// where the platform provides one), so an instance whose pins exceed
// a run.MaxAlloc budget still builds.  The write is atomic: dst
// appears only complete, via fsync-and-rename, and the scratch file is
// removed either way.
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
// work units accumulate and are charged (with a failpoint probe) once
// buildCheckEvery have gathered.
type buildTicker struct {
	pending int64
}

// tick counts n work units and checkpoints at the interval.
func (b *buildTicker) tick(ctx context.Context, meter *run.Meter, n int64) error {
	if b.pending += n; b.pending >= buildCheckEvery {
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
// build's scratch rows, and the scatter target for the transposed pin
// array.  Where useMmap holds the region is served by a shared
// read-write mapping; otherwise by pread/pwrite with explicit
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
	p := &pinFile{f: f, base: base, n: n, buf: make([]byte, bufSize)}
	if n > 0 && useMmap {
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

// scratchFile creates a build's scratch file next to dst.  The
// returned drop closes and removes it.
func scratchFile(dst string) (*os.File, func(), error) {
	f, err := os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".scratch-*")
	if err != nil {
		return nil, nil, fmt.Errorf("store: build %s: create scratch: %w", dst, err)
	}
	return f, func() {
		f.Close()
		os.Remove(f.Name())
	}, nil
}

// buildText streams a hypergraph text source into a store file in one
// pass.  hypergraph.ReadTextRowsCtx interns the names with ReadText's
// Builder and hands over each hyperedge's sorted, duplicate-free
// members, which are appended to a scratch file while the vertex
// degrees are counted; writeRows then lays the rows out as the store.
// The file is the one WriteH writes for ReadText of the same source.
func buildText(ctx context.Context, meter *run.Meter, dst string, src Source) error {
	bt := &buildTicker{}
	scr, drop, err := scratchFile(dst)
	if err != nil {
		return err
	}
	defer drop()
	if err := meter.Alloc(2 * bufSize); err != nil { // the scratch writer and its encode buffer
		return err
	}
	bw := bufio.NewWriterSize(scr, bufSize)
	enc := make([]byte, bufSize)
	var vDeg []int32
	eOff := []int32{0}
	pins, charged := 0, 0
	// grown charges the growth of vDeg and eOff.
	grown := func() error {
		c := cap(vDeg) + cap(eOff)
		if c <= charged {
			return nil
		}
		err := meter.Alloc(4 * int64(c-charged))
		charged = c
		return err
	}
	rc, err := src.Open()
	if err != nil {
		return fmt.Errorf("store: build %s: open source: %w", dst, err)
	}
	vNames, eNames, err := hypergraph.ReadTextRowsCtx(ctx, rc, func(row []int32) error {
		if err := bt.tick(ctx, meter, int64(len(row))); err != nil {
			return err
		}
		if len(row) > 0 {
			if n := int(row[len(row)-1]) + 1; n > len(vDeg) {
				vDeg = append(vDeg, make([]int32, n-len(vDeg))...)
			}
		}
		for _, v := range row {
			vDeg[v]++
		}
		// The reader's Builder stops at ErrPinSpace before a row
		// carries the pins past the int32 index space.
		pins += len(row)
		eOff = append(eOff, int32(pins))
		if err := grown(); err != nil {
			return err
		}
		return writeInt32s(ctx, meter, bw, enc, row)
	})
	cerr := rc.Close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("store: build %s: close source: %w", dst, cerr)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: build %s: scratch write: %w", dst, err)
	}
	// Vertices past the last one a row holds are isolated.
	vDeg = append(vDeg, make([]int32, len(vNames)-len(vDeg))...)
	if err := grown(); err != nil {
		return err
	}
	vList, err := newNameList(ctx, meter, len(vNames), func(v int) string { return vNames[v] })
	if err != nil {
		return err
	}
	eList, err := newNameList(ctx, meter, len(eNames), func(f int) string { return eNames[f] })
	if err != nil {
		return err
	}
	rows := newPinFile(scr, 4*int64(pins), 0, int64(pins))
	defer rows.close()
	return writeRows(ctx, meter, bt, dst, rows, vDeg, eOff, vList, eList)
}

// buildMTX streams a Matrix Market coordinate source into a store
// file: rows become vertices, columns hyperedges, exactly as
// mmio.ToHypergraph converts in RAM (duplicates collapse, empty
// columns stay as empty hyperedges, neither side is named), so the
// store holds the bytes WriteH writes for that conversion.  Pass 1 counts the raw entries per column and pass 2 scatters
// them, grouped by column, into a scratch file; each column is then
// sorted and compacted in place, and writeRows lays the compacted
// columns out as the store.  RAM stays O(rows+cols) plus the largest
// raw column.
func buildMTX(ctx context.Context, meter *run.Meter, dst string, src Source) error {
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
		Size: func(info *mmio.Info) error {
			if int64(info.Rows) >= maxInt32 || int64(info.Cols) >= maxInt32 {
				return fmt.Errorf("store: build %s: %d x %d dimensions overflow the int32 index space", dst, info.Rows, info.Cols)
			}
			numV, numE, sized = int64(info.Rows), int64(info.Cols), true
			if aerr := meter.Alloc(4 * numE); aerr != nil {
				return aerr
			}
			eDegRaw = make([]int32, numE)
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

	if aerr := meter.Alloc(4*(2*numE+1) + bufSize); aerr != nil { // offsets, cursors, pinFile code buffer
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
	scr, drop, err := scratchFile(dst)
	if err != nil {
		return err
	}
	defer drop()
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
		Size: func(info *mmio.Info) error {
			if int64(info.Rows) != numV || int64(info.Cols) != numE {
				return changed(dst, "size %dx%d, counted %dx%d", info.Rows, info.Cols, numV, numE)
			}
			return nil
		},
		Entry: func(i, j int32, v float64) error {
			if terr := bt.tick(ctx, meter, 1); terr != nil {
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
	if aerr := meter.Alloc(4 * (maxColRaw + numE + 1 + numV)); aerr != nil {
		return aerr
	}
	rowBuf := make([]int32, maxColRaw)
	eOff := make([]int32, numE+1)
	vDeg := make([]int32, numV)
	write := int64(0)
	for j := int64(0); j < numE; j++ {
		if terr := bt.tick(ctx, meter, 1); terr != nil {
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
		write += int64(len(uniq))
		eOff[j+1] = int32(write)
	}
	return writeRows(ctx, meter, bt, dst, raw, vDeg, eOff, nameList{}, nameList{})
}

// writeRows is the tail both builds end in.  rows holds the members of
// hyperedge f, sorted and duplicate-free, at entries [eOff[f],
// eOff[f+1]), and vDeg[v] counts the rows holding vertex v.  It lays
// the store out, writes the offset and name sections, streams EAdj
// from rows while scattering VAdj through a pin file at each vertex's
// cursor, then checksums VAdj and renames the file into place at dst.
func writeRows(ctx context.Context, meter *run.Meter, bt *buildTicker, dst string, rows *pinFile, vDeg, eOff []int32, vNames, eNames nameList) error {
	numV, numE := int64(len(vDeg)), int64(len(eOff)-1)
	pins := int64(eOff[numE])
	maxDeg := int32(0)
	for f := range numE {
		maxDeg = max(maxDeg, eOff[f+1]-eOff[f])
	}
	if err := meter.Alloc(4*(2*numV+1+int64(maxDeg)) + bufSize); err != nil { // offsets, cursors, row buffer, VAdj pinFile code buffer
		return err
	}
	vOff := make([]int32, numV+1)
	for v, d := range vDeg {
		vOff[v+1] = vOff[v] + d
	}
	vCursor := slices.Clone(vOff[:numV])
	row := make([]int32, maxDeg)
	hdr := computeLayout(numV, numE, pins, vNames.blob, eNames.blob)
	if err := meter.Alloc(sinkRAMBytes); err != nil {
		return err
	}
	sink, err := newSectionSink(&hdr, dst)
	if err != nil {
		return err
	}
	defer sink.discard()
	if err := sink.ints(ctx, meter, secVOff, vOff); err != nil {
		return err
	}
	if err := sink.ints(ctx, meter, secEOff, eOff); err != nil {
		return err
	}
	if err := sink.names(ctx, meter, secVNameOff, vNames); err != nil {
		return err
	}
	if err := sink.names(ctx, meter, secENameOff, eNames); err != nil {
		return err
	}

	vadj := newPinFile(sink.tmp, hdr.fileSize(), hdr.sec[secVAdj].off, pins)
	defer vadj.close()
	sink.begin(secEAdj)
	for f := int64(0); f < numE; f++ {
		if err := bt.tick(ctx, meter, 1); err != nil {
			return err
		}
		r := row[:eOff[f+1]-eOff[f]]
		if err := rows.read(ctx, meter, int64(eOff[f]), r); err != nil {
			return fmt.Errorf("store: build %s: scratch read: %w", dst, err)
		}
		if err := writeInt32s(ctx, meter, sink.cw, sink.buf, r); err != nil {
			return err
		}
		for _, v := range r {
			if err := bt.tick(ctx, meter, 1); err != nil {
				return err
			}
			if err := vadj.put(int64(vCursor[v]), int32(f)); err != nil {
				return fmt.Errorf("store: build %s: scatter: %w", dst, err)
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
	crcV, err := fileCRC(ctx, meter, sink.tmp, hdr.sec[secVAdj].off, hdr.sec[secVAdj].size, sink.buf)
	if err != nil {
		return err
	}
	hdr.sec[secVAdj].crc = crcV
	return sink.finalizeAtomic()
}
