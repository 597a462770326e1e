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

	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
)

// writeCheckEvery bounds how many names pass between checkpoints in
// the name writers.
const writeCheckEvery = 256

// bufSize is the size of the encode buffers and of a pin file's code
// buffer.
const bufSize = 1 << 16

// sinkRAMBytes is the fixed buffer cost of a sectionSink, charged
// against MaxAlloc by the builders.
const sinkRAMBytes = 1<<18 + bufSize

// crcWriter counts and checksums the bytes of one section on their way
// into the buffered file writer.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	cw.n += int64(len(p))
	return cw.w.Write(p)
}

// writeInt32s streams vals little-endian to w, encoding through buf
// and checkpointing once per buffer chunk.
func writeInt32s(ctx context.Context, meter *run.Meter, w io.Writer, buf []byte, vals []int32) error {
	for len(vals) > 0 {
		if err := run.Tick(ctx, meter, 1); err != nil {
			return err
		}
		n := min(len(vals), len(buf)/4)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// nameList is one side's names as the section writers read them:
// name(i) for i < n, blob bytes in all.  The names come from a
// hypergraph's or a builder's name table, whose int32 offsets bound
// blob.  A side whose names are all empty (blob 0, as in the zero
// nameList) gets no name sections.
type nameList struct {
	n    int
	name func(int) string
	blob int64
}

// newNameList measures the names name(0), …, name(n-1).
func newNameList(ctx context.Context, meter *run.Meter, n int, name func(int) string) (nameList, error) {
	l := nameList{n: n, name: name}
	total := int64(0)
	err := l.each(ctx, meter, func(s string) error {
		total += int64(len(s))
		return nil
	})
	l.blob = total
	return l, err
}

// each calls fn with every name in order, checkpointing every
// writeCheckEvery names.
func (l nameList) each(ctx context.Context, meter *run.Meter, fn func(string) error) error {
	for i := 0; i < l.n; i++ {
		if i%writeCheckEvery == 0 {
			if err := run.Tick(ctx, meter, int64(min(writeCheckEvery, l.n-i))); err != nil {
				return err
			}
		}
		if err := fn(l.name(i)); err != nil {
			return err
		}
	}
	return nil
}

// sectionSink writes the sections of a store file under construction
// at their layout offsets, in any order, recording their checksums:
// the one writer behind WriteH and both builds.  The file is a temp
// file next to its destination until finalizeAtomic renames it into
// place; until then discard removes it.
type sectionSink struct {
	hdr       *header
	tmp       *os.File
	path      string
	bw        *bufio.Writer
	cw        *crcWriter
	buf       []byte // encode and checksum scratch
	finalized bool
}

// newSectionSink creates the temp file for a store with layout hdr at
// path, sized to the layout, so the padding between sections reads as
// zeros without being written.
func newSectionSink(hdr *header, path string) (*sectionSink, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("store: write %s: create temp: %w", path, err)
	}
	bw := bufio.NewWriterSize(nil, 1<<18)
	s := &sectionSink{hdr: hdr, tmp: tmp, path: path, bw: bw, cw: &crcWriter{w: bw}, buf: make([]byte, bufSize)}
	if err := tmp.Truncate(hdr.fileSize()); err != nil {
		s.discard()
		return nil, fmt.Errorf("store: write %s: size temp: %w", path, err)
	}
	return s, nil
}

// discard closes and removes the temp file unless finalizeAtomic
// renamed it into place.
func (s *sectionSink) discard() {
	if !s.finalized {
		s.tmp.Close()
		os.Remove(s.tmp.Name())
	}
}

// begin points the sink at section i.
func (s *sectionSink) begin(i int) {
	s.bw.Reset(io.NewOffsetWriter(s.tmp, s.hdr.sec[i].off))
	s.cw.crc, s.cw.n = 0, 0
}

// finish flushes section i and checks the byte count against the
// layout.
func (s *sectionSink) finish(i int) error {
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("store: write %s section %d: %w", s.path, i, err)
	}
	if s.cw.n != s.hdr.sec[i].size {
		return fmt.Errorf("store: write %s section %d: wrote %d bytes, want %d", s.path, i, s.cw.n, s.hdr.sec[i].size)
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
	if err := writeInt32s(ctx, meter, s.cw, s.buf, vals); err != nil {
		return err
	}
	return s.finish(i)
}

// names writes one side's name sections, offSec and the blob section
// after it: the (n+1)-entry offset array from 0 and the names one
// after another.
func (s *sectionSink) names(ctx context.Context, meter *run.Meter, offSec int, l nameList) error {
	if s.hdr.sec[offSec].size == 0 {
		return nil
	}
	s.begin(offSec)
	b := binary.LittleEndian.AppendUint32(s.buf[:0], 0)
	end := int64(0)
	err := l.each(ctx, meter, func(name string) error {
		if len(b) == cap(b) {
			if _, err := s.cw.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
		end += int64(len(name))
		b = binary.LittleEndian.AppendUint32(b, uint32(end))
		return nil
	})
	if err != nil {
		return err
	}
	if _, err := s.cw.Write(b); err != nil {
		return err
	}
	if err := s.finish(offSec); err != nil {
		return err
	}
	s.begin(offSec + 1)
	if err := l.each(ctx, meter, func(name string) error {
		_, err := s.cw.Write([]byte(name))
		return err
	}); err != nil {
		return err
	}
	return s.finish(offSec + 1)
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
func (s *sectionSink) finalizeAtomic() error {
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("store: write %s: %w", s.path, err)
	}
	if _, err := s.tmp.WriteAt(encodeHeader(s.hdr), 0); err != nil {
		return fmt.Errorf("store: write %s header: %w", s.path, err)
	}
	if err := s.tmp.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", s.path, err)
	}
	if err := s.tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", s.path, err)
	}
	if err := os.Rename(s.tmp.Name(), s.path); err != nil {
		return fmt.Errorf("store: rename into %s: %w", s.path, err)
	}
	s.finalized = true
	return syncDir(filepath.Dir(s.path))
}

// WriteH serializes a Hypergraph into a store file at path, names
// included, so the round trip through Open().H() is exact.
func WriteH(path string, h *hypergraph.Hypergraph) error {
	return WriteHCtx(context.Background(), path, h)
}

// WriteHCtx is WriteH honoring cancellation, deadline and any
// run.Budget attached to ctx (one step per 64 KiB section chunk and
// per name).  It writes through the builders' section and name
// writers, reading the names straight from h; a side with no
// non-empty name gets no name sections.  The write goes to a
// same-directory temp file that is fsynced and renamed into place; on
// any error the temp file is removed and path is untouched.
func WriteHCtx(ctx context.Context, path string, h *hypergraph.Hypergraph) error {
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, 0); err != nil {
		return err
	}
	vNames, err := newNameList(ctx, meter, h.NumVertices(), h.VertexName)
	if err != nil {
		return err
	}
	eNames, err := newNameList(ctx, meter, h.NumEdges(), h.EdgeName)
	if err != nil {
		return err
	}
	hdr := computeLayout(int64(h.NumVertices()), int64(h.NumEdges()), int64(h.NumPins()), vNames.blob, eNames.blob)
	sink, err := newSectionSink(&hdr, path)
	if err != nil {
		return err
	}
	defer sink.discard()
	c := h.CSR()
	for i, vals := range [...][]int32{secVOff: c.VOff, secVAdj: c.VAdj, secEOff: c.EOff, secEAdj: c.EAdj} {
		if err := sink.ints(ctx, meter, i, vals); err != nil {
			return err
		}
	}
	if err := sink.names(ctx, meter, secVNameOff, vNames); err != nil {
		return err
	}
	if err := sink.names(ctx, meter, secENameOff, eNames); err != nil {
		return err
	}
	return sink.finalizeAtomic()
}
