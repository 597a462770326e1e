// Package store is the out-of-core form of the CSR substrate: File
// serves the four csr.CSR incidence arrays and the names from a
// page-aligned flat file, memory-mapped where the platform supports it
// (linux, little-endian) with a portable os.ReadAt loader everywhere
// else.  A mapped file's arrays are the hypergraph's own: File.H wraps
// them with hypergraph.FromCSR and copies none of them.  WriteH
// produces the file from a hypergraph in RAM; BuildFile constructs it
// straight from a source, a text file in one streaming pass or a
// MatrixMarket file in two, so an instance whose pin arrays exceed RAM
// (or a run.MaxAlloc budget) never has to exist as an in-memory
// Hypergraph.  All three write through one section writer and give the
// same bytes for the same hypergraph.
package store

import (
	"context"
	"fmt"
	"hash/crc32"
	"os"

	"hyperplex/internal/csr"
	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
)

// fpOpen fires on every checkpoint of the file-open verification scan.
var fpOpen = failpoint.Register("store.open")

// verifyChunk bounds how many section bytes are checksummed between
// cancellation/budget checkpoints in OpenCtx.
const verifyChunk = 1 << 20

// useMmap reports whether store files are served by memory mappings
// (linux, little-endian): Open maps a file read-only, and the builder
// maps its pin files read-write.  Tests clear it to drive the os.ReadAt
// loader and the pread/pwrite pin files every other host takes.
var useMmap = mmapSupported && nativeLittleEndian

// File is an open store file.  See format.go for the layout.  Every
// slice reachable through it is read-only and, for a mapped file, only
// valid until Close.
type File struct {
	path   string
	f      *os.File
	mapped []byte // whole-file mapping; nil for the ReadAt loader

	c                    csr.CSR
	vNameOff, eNameOff   []int32
	vNameBlob, eNameBlob []byte

	h      *hypergraph.Hypergraph
	closed bool
}

// Open opens a store file with the default context.
func Open(path string) (*File, error) {
	return OpenCtx(context.Background(), path)
}

// OpenCtx opens a store file: header validation first (allocation-
// capped — nothing proportional to the declared counts is allocated or
// mapped until the header proves the sections consistent with the file
// size), then the arrays are mapped (linux, little-endian hosts) or
// loaded via os.ReadAt, then every section checksum and the full
// csr.Validate structural check run, with cancellation/budget
// checkpoints every verifyChunk bytes.  Step unit: one verified chunk;
// the structural check's cursor, 4 bytes per vertex, is charged to the
// allocation budget.  On error nothing stays mapped or open.
func OpenCtx(ctx context.Context, path string) (f *File, err error) {
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, 0); err != nil {
		return nil, err
	}
	osf, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st := &File{path: path, f: osf}
	opened := false
	// The deferred close also runs when an armed failpoint panics
	// mid-verify, so a failed open never leaks the mapping or the fd.
	defer func() {
		if !opened {
			st.Close()
		}
	}()
	info, err := osf.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	size := info.Size()
	if size < headerSize {
		return nil, fmt.Errorf("store: %s: truncated: %d bytes is smaller than the %d-byte header", path, size, headerSize)
	}
	hbuf := make([]byte, headerSize)
	if _, err := osf.ReadAt(hbuf, 0); err != nil {
		return nil, fmt.Errorf("store: %s: read header: %w", path, err)
	}
	hdr, err := decodeHeader(hbuf, size)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}

	if useMmap {
		// Portable fallback on mapping failure: a filesystem that
		// cannot map (or an exhausted address space) serves via ReadAt.
		if b, merr := mapFile(osf, size); merr == nil {
			st.mapped = b
		}
	}

	sectionRaw := func(i int) ([]byte, error) {
		s := hdr.sec[i]
		if s.size == 0 {
			return nil, nil
		}
		if st.mapped != nil {
			return st.mapped[s.off : s.off+s.size], nil
		}
		b := make([]byte, s.size)
		if _, rerr := osf.ReadAt(b, s.off); rerr != nil {
			return nil, fmt.Errorf("store: %s: read section %d: %w", path, i, rerr)
		}
		return b, nil
	}
	var raw [numSections][]byte
	for i := range raw {
		if err := run.Tick(ctx, meter, 0); err != nil {
			return nil, err
		}
		if raw[i], err = sectionRaw(i); err != nil {
			return nil, err
		}
	}

	for i, b := range raw {
		if err := run.Tick(ctx, meter, 0); err != nil {
			return nil, err
		}
		var got uint32
		for len(b) > 0 {
			if err := failpoint.Inject(fpOpen); err != nil {
				return nil, err
			}
			if err := run.Tick(ctx, meter, 1); err != nil {
				return nil, err
			}
			n := min(len(b), verifyChunk)
			got = crc32.Update(got, crc32.IEEETable, b[:n])
			b = b[n:]
		}
		if got != hdr.sec[i].crc {
			return nil, fmt.Errorf("store: %s: section %d checksum mismatch (file corrupt?)", path, i)
		}
	}

	// Int32 sections: viewed in place when mapped (little-endian by
	// construction of the mmap gate), decoded otherwise.
	asInt32 := func(b []byte) []int32 {
		if st.mapped != nil {
			return int32View(b)
		}
		out := make([]int32, len(b)/4)
		for i := range out {
			out[i] = int32(uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24)
		}
		return out
	}
	st.c = csr.CSR{
		VOff: asInt32(raw[secVOff]),
		VAdj: asInt32(raw[secVAdj]),
		EOff: asInt32(raw[secEOff]),
		EAdj: asInt32(raw[secEAdj]),
	}
	if hdr.sec[secVNameOff].size != 0 {
		st.vNameOff = asInt32(raw[secVNameOff])
		st.vNameBlob = raw[secVNameBlob]
		if err := validateNameOffsets("vertex", st.vNameOff, len(st.vNameBlob)); err != nil {
			return nil, fmt.Errorf("%w (%s)", err, path)
		}
	}
	if hdr.sec[secENameOff].size != 0 {
		st.eNameOff = asInt32(raw[secENameOff])
		st.eNameBlob = raw[secENameBlob]
		if err := validateNameOffsets("edge", st.eNameOff, len(st.eNameBlob)); err != nil {
			return nil, fmt.Errorf("%w (%s)", err, path)
		}
	}

	// The structural check walks every pin once per direction.
	if err := run.Tick(ctx, meter, hdr.pins/verifyChunk+1); err != nil {
		return nil, err
	}
	// Validate's cross-direction walk keeps one int32 cursor per vertex
	// on the heap.
	if err := meter.Alloc(4 * hdr.numV); err != nil {
		return nil, err
	}
	if err := st.c.Validate(); err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	opened = true
	return st, nil
}

// validateNameOffsets pins the name offset array to the blob it
// indexes, so Open rejects a file whose names would not slice: the
// checksums show only that a section is the one written, and
// csr.Validate checks no name.
func validateNameOffsets(kind string, off []int32, blobLen int) error {
	if off[0] != 0 {
		return fmt.Errorf("store: %s name offsets must start at 0", kind)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("store: %s name offsets not monotone at %d", kind, i)
		}
	}
	if int(off[len(off)-1]) != blobLen {
		return fmt.Errorf("store: %s name offsets end at %d, want the %d-byte blob", kind, off[len(off)-1], blobLen)
	}
	return nil
}

// H returns the stored hypergraph.  Its four incidence arrays and the
// name offsets stay backed by the store (the mapping, for a mapped
// file); only one string per side's name blob and the name indexes
// become RAM-resident, O(|V|+|F|), and an unnamed file adds none.  The
// result is cached and shares the store's lifetime: do not use it after
// Close.
func (s *File) H() (*hypergraph.Hypergraph, error) {
	if s.h != nil {
		return s.h, nil
	}
	h, err := hypergraph.FromCSR(&s.c, s.vNameOff, s.vNameBlob, s.eNameOff, s.eNameBlob)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", s.path, err)
	}
	s.h = h
	return h, nil
}

// Close unmaps (when mapped) and closes the file.  Idempotent.  After
// Close, arrays obtained from a mapped store must not be touched; those
// the os.ReadAt loader read are ordinary heap memory and stay valid.
func (s *File) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.mapped != nil {
		if err := unmapFile(s.mapped); err != nil && first == nil {
			first = err
		}
		s.mapped = nil
	}
	if s.f != nil {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
