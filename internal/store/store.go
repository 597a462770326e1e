// Package store is the storage seam under the CSR substrate: a
// Backend presents the four CSR incidence arrays (plus optional ID
// maps and names) to the kernels without saying where the bytes live.
// Two implementations exist — Mem wraps the in-RAM arena csr.FromH has
// always produced, and File serves a page-aligned flat file, memory-
// mapped where the platform supports it (linux, little-endian) with a
// portable os.ReadAt loader everywhere else.  BuildFile constructs the
// file form directly from a text or MatrixMarket source in two
// streaming passes, so an instance whose pin arrays exceed RAM (or a
// run.MaxAlloc budget) never has to exist as an in-memory Hypergraph.
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

// Backend is the storage seam: kernels read the hypergraph through a
// CSR view and its names without knowing whether the arrays live in
// RAM or in a mapped file.  Every slice reachable through it is
// read-only, and (for a File backend) only valid until Close.
type Backend interface {
	// CSR returns the flat incidence view.  The returned value and its
	// arrays are shared, not copied.
	CSR() *csr.CSR
	// VertexName returns the name of vertex v ("" if unnamed).
	VertexName(v int32) string
	// EdgeName returns the name of hyperedge f ("" if unnamed).
	EdgeName(f int32) string
	// H returns the builder-layer view of the same hypergraph.  The
	// pin arrays are aliased from the backend, so for a mapped file
	// only the offsets, names and name indexes (O(|V|+|F|)) become
	// RAM-resident.
	H() (*hypergraph.Hypergraph, error)
	// Close releases the backend's resources.  For a memory-mapped
	// File every array obtained through the backend becomes invalid.
	Close() error
}

// Mem is the in-RAM backend: the arena csr.FromH carves over an
// ordinary Hypergraph, behind the seam interface.  Close is a no-op.
type Mem struct {
	h *hypergraph.Hypergraph
	c *csr.CSR
}

// NewMem wraps h in the in-RAM backend.
func NewMem(h *hypergraph.Hypergraph) *Mem {
	return &Mem{h: h, c: csr.FromH(h)}
}

func (m *Mem) CSR() *csr.CSR { return m.c }

func (m *Mem) VertexName(v int32) string { return m.h.VertexName(int(v)) }

func (m *Mem) EdgeName(f int32) string { return m.h.EdgeName(int(f)) }

func (m *Mem) H() (*hypergraph.Hypergraph, error) { return m.h, nil }

func (m *Mem) Close() error { return nil }

// Options configures Open.
type Options struct {
	// NoMmap forces the portable os.ReadAt loader even where mmap is
	// available.  The arrays are then ordinary heap memory and stay
	// valid after Close — dataset loading uses this so a loaded
	// instance does not pin a file descriptor.
	NoMmap bool
	// SkipVerify skips the section checksums and the structural CSR
	// validation, for files this process just wrote or otherwise
	// trusts.  The header and the name offset arrays are always
	// validated, so even a skipped verify cannot read out of bounds.
	SkipVerify bool
}

// File is the flat-file backend.  See format.go for the layout.
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
func Open(path string, opts Options) (*File, error) {
	return OpenCtx(context.Background(), path, opts)
}

// OpenCtx opens a store file: header validation first (allocation-
// capped — nothing proportional to the declared counts is allocated or
// mapped until the header proves the sections consistent with the file
// size), then the arrays are mapped (linux, little-endian hosts) or
// loaded via os.ReadAt, then — unless opts.SkipVerify — every section
// checksum and the full csr.Validate structural check run, with
// cancellation/budget checkpoints every verifyChunk bytes.  Step unit:
// one verified chunk; the structural check's cursor, 4 bytes per
// vertex, is charged to the allocation budget.  On error nothing stays
// mapped or open.
func OpenCtx(ctx context.Context, path string, opts Options) (f *File, err error) {
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

	if !opts.NoMmap && mmapSupported && nativeLittleEndian {
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

	if !opts.SkipVerify {
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
	if hdr.sec[secVertexID].size != 0 || hdr.sec[secEdgeID].size != 0 {
		st.c.VertexID = asInt32(raw[secVertexID])
		st.c.EdgeID = asInt32(raw[secEdgeID])
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

	if !opts.SkipVerify {
		// The structural check walks every pin once per direction.
		if err := run.Tick(ctx, meter, hdr.pins/verifyChunk+1); err != nil {
			return nil, err
		}
		// Validate's cross-direction walk keeps one int32 cursor per
		// vertex on the heap.
		if err := meter.Alloc(4 * hdr.numV); err != nil {
			return nil, err
		}
		if err := st.c.Validate(); err != nil {
			return nil, fmt.Errorf("store: %s: %w", path, err)
		}
	}
	opened = true
	return st, nil
}

// validateNameOffsets pins the name offset array to the blob it
// indexes, so the name accessors can slice without bounds surprises
// even when the caller skipped the checksum verify.
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

// CSR returns the store's incidence view; for a mapped file the pin
// arrays point straight into the mapping.
func (s *File) CSR() *csr.CSR { return &s.c }

// VertexName returns the name of vertex v ("" if the file carries no
// vertex names).
func (s *File) VertexName(v int32) string {
	if s.vNameOff == nil {
		return ""
	}
	return string(s.vNameBlob[s.vNameOff[v]:s.vNameOff[v+1]])
}

// EdgeName returns the name of hyperedge f ("" if the file carries no
// edge names).
func (s *File) EdgeName(f int32) string {
	if s.eNameOff == nil {
		return ""
	}
	return string(s.eNameBlob[s.eNameOff[f]:s.eNameOff[f+1]])
}

// H returns the builder-layer view of the stored hypergraph.  The pin
// arrays and name offsets stay backed by the store (the mapping, for a
// mapped file); the widened CSR offsets, one string per side's name
// blob and the name indexes become RAM-resident, O(|V|+|F|).  The result is
// cached and shares the store's lifetime: do not use it after Close
// unless the store was opened with NoMmap.
func (s *File) H() (*hypergraph.Hypergraph, error) {
	if s.h != nil {
		return s.h, nil
	}
	h, err := hypergraph.FromCSRArrays(s.c.VOff, s.c.VAdj, s.c.EOff, s.c.EAdj,
		s.vNameOff, s.vNameBlob, s.eNameOff, s.eNameBlob)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", s.path, err)
	}
	s.h = h
	return h, nil
}

// Close unmaps (when mapped) and closes the file.  Idempotent.  After
// Close, arrays obtained from a mapped store must not be touched; a
// NoMmap store's arrays are ordinary heap memory and stay valid.
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
