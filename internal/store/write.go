package store

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"hyperplex/internal/csr"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
)

// writeCheckEvery bounds how many variable-length records (names) pass
// between checkpoints in the section writers.
const writeCheckEvery = 256

// crcWriter counts and checksums the bytes of one section on their way
// into the buffered file writer.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	n   int64
	buf []byte // encode scratch for int32 values
}

func newCRCWriter(w *bufio.Writer) *crcWriter {
	return &crcWriter{w: w, buf: make([]byte, 1<<16)}
}

func (cw *crcWriter) reset() { cw.crc, cw.n = 0, 0 }

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	cw.n += int64(len(p))
	return cw.w.Write(p)
}

// writeInt32s streams vals little-endian through the section checksum,
// checkpointing once per encode-buffer chunk.
func (cw *crcWriter) writeInt32s(ctx context.Context, meter *run.Meter, vals []int32) error {
	for len(vals) > 0 {
		if err := run.Tick(ctx, meter, 1); err != nil {
			return err
		}
		n := min(len(vals), len(cw.buf)/4)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(cw.buf[4*i:], uint32(vals[i]))
		}
		if _, err := cw.Write(cw.buf[:4*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// writeNameBlob streams the concatenated names through the section
// checksum with interval checkpoints.
func (cw *crcWriter) writeNameBlob(ctx context.Context, meter *run.Meter, names []string) error {
	pending := 0
	for _, s := range names {
		if pending++; pending >= writeCheckEvery {
			if err := run.Tick(ctx, meter, int64(pending)); err != nil {
				return err
			}
			pending = 0
		}
		if _, err := cw.Write([]byte(s)); err != nil {
			return err
		}
	}
	return run.Tick(ctx, meter, int64(pending))
}

// zeroPage is the padding source; a page is the largest possible gap.
var zeroPage [pageSize]byte

// padToPage advances the writer to the next page boundary with zeros.
// Padding is outside the section, so it is not checksummed.
func padToPage(bw *bufio.Writer, written int64) error {
	rem := pagePad(written) - written
	if rem == 0 {
		return nil
	}
	_, err := bw.Write(zeroPage[:rem])
	return err
}

// nameOffsets builds the (n+1)-entry offset array over one side's
// names.  The total blob length is capped to the int32 offset space:
// beyond it the file format cannot represent the names and the write
// fails loudly.
func nameOffsets(kind string, names []string) ([]int32, int64, error) {
	off := make([]int32, len(names)+1)
	total := int64(0)
	for i, s := range names {
		total += int64(len(s))
		if total > maxInt32 {
			return nil, 0, fmt.Errorf("store: %s name blob exceeds the int32 offset space", kind)
		}
		off[i+1] = int32(total)
	}
	return off, total, nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("store: sync %s: %w", dir, serr)
	}
	if cerr != nil {
		return fmt.Errorf("store: sync %s: %w", dir, cerr)
	}
	return nil
}

// finalizeAtomic flushes the buffered sections, stamps the header page
// at offset zero, fsyncs, and renames the temp file into place (then
// fsyncs the directory), so a crash at any point leaves either the old
// file or the complete new one — never a partial store.
func finalizeAtomic(tmp *os.File, bw *bufio.Writer, hdr *header, path string) error {
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if _, err := tmp.WriteAt(encodeHeader(hdr), 0); err != nil {
		return fmt.Errorf("store: write %s header: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: rename into %s: %w", path, err)
	}
	return syncDir(filepath.Dir(path))
}

// Write serializes a CSR (with optional names) into a store file at
// path, atomically.
func Write(path string, c *csr.CSR, vNames, eNames []string) error {
	return WriteCtx(context.Background(), path, c, vNames, eNames)
}

// WriteCtx is Write honoring cancellation, deadline and any run.Budget
// attached to ctx (one step per 64 KiB section chunk).  The write goes
// to a same-directory temp file that is fsynced and renamed into
// place; on any error the temp file is removed and path is untouched.
func WriteCtx(ctx context.Context, path string, c *csr.CSR, vNames, eNames []string) (err error) {
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, 0); err != nil {
		return err
	}
	numV, numE, pins := int64(c.NumVertices()), int64(c.NumEdges()), int64(len(c.EAdj))
	if len(c.VAdj) != len(c.EAdj) {
		return fmt.Errorf("store: pin counts disagree: %d vertex-side vs %d edge-side", len(c.VAdj), len(c.EAdj))
	}
	if numV >= maxInt32 || numE >= maxInt32 || pins > maxInt32 {
		return fmt.Errorf("store: %d vertices / %d hyperedges / %d pins overflow the int32 index space", numV, numE, pins)
	}
	if vNames != nil && int64(len(vNames)) != numV {
		return fmt.Errorf("store: %d vertex names for %d vertices", len(vNames), numV)
	}
	if eNames != nil && int64(len(eNames)) != numE {
		return fmt.Errorf("store: %d edge names for %d hyperedges", len(eNames), numE)
	}
	vBlob, eBlob := int64(-1), int64(-1)
	var vNameOff, eNameOff []int32
	if vNames != nil {
		if vNameOff, vBlob, err = nameOffsets("vertex", vNames); err != nil {
			return err
		}
	}
	if eNames != nil {
		if eNameOff, eBlob, err = nameOffsets("edge", eNames); err != nil {
			return err
		}
	}
	hdr := computeLayout(numV, numE, pins, vBlob, eBlob)

	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: create temp for %s: %w", path, err)
	}
	finalized := false
	defer func() {
		if !finalized {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	// Header placeholder: the real page is stamped after the section
	// checksums are known.
	if _, err := bw.Write(zeroPage[:]); err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	cw := newCRCWriter(bw)
	emit := func(i int, f func() error) error {
		if hdr.sec[i].size == 0 {
			return nil
		}
		cw.reset()
		if err := f(); err != nil {
			return fmt.Errorf("store: write %s section %d: %w", path, i, err)
		}
		if cw.n != hdr.sec[i].size {
			return fmt.Errorf("store: write %s section %d: wrote %d bytes, want %d", path, i, cw.n, hdr.sec[i].size)
		}
		hdr.sec[i].crc = cw.crc
		return padToPage(bw, cw.n)
	}
	ints := func(vals []int32) func() error {
		return func() error { return cw.writeInt32s(ctx, meter, vals) }
	}
	steps := []struct {
		sec  int
		emit func() error
	}{
		{secVOff, ints(c.VOff)},
		{secVAdj, ints(c.VAdj)},
		{secEOff, ints(c.EOff)},
		{secEAdj, ints(c.EAdj)},
		{secVNameOff, ints(vNameOff)},
		{secVNameBlob, func() error { return cw.writeNameBlob(ctx, meter, vNames) }},
		{secENameOff, ints(eNameOff)},
		{secENameBlob, func() error { return cw.writeNameBlob(ctx, meter, eNames) }},
	}
	for _, s := range steps {
		if err := run.Tick(ctx, meter, 0); err != nil {
			return err
		}
		if err := emit(s.sec, s.emit); err != nil {
			return err
		}
	}
	if err := finalizeAtomic(tmp, bw, &hdr, path); err != nil {
		return err
	}
	finalized = true
	return nil
}

// WriteH serializes a Hypergraph into a store file at path, names
// included, so the round trip through Open().H() is exact.
func WriteH(path string, h *hypergraph.Hypergraph) error {
	return WriteHCtx(context.Background(), path, h)
}

// WriteHCtx is WriteH honoring cancellation, deadline and budgets.
func WriteHCtx(ctx context.Context, path string, h *hypergraph.Hypergraph) error {
	meter := run.MeterFrom(ctx)
	sideNames := func(n int, name func(int) string) ([]string, error) {
		out := make([]string, n)
		named, pending := false, 0
		for i := range out {
			if pending++; pending >= writeCheckEvery {
				if err := run.Tick(ctx, meter, int64(pending)); err != nil {
					return nil, err
				}
				pending = 0
			}
			if out[i] = name(i); out[i] != "" {
				named = true
			}
		}
		if err := run.Tick(ctx, meter, int64(pending)); err != nil {
			return nil, err
		}
		if !named {
			return nil, nil
		}
		return out, nil
	}
	vNames, err := sideNames(h.NumVertices(), h.VertexName)
	if err != nil {
		return err
	}
	eNames, err := sideNames(h.NumEdges(), h.EdgeName)
	if err != nil {
		return err
	}
	return WriteCtx(ctx, path, h.CSR(), vNames, eNames)
}
