package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The store file is one 4096-byte header page followed by up to eight
// page-aligned little-endian sections, laid out in section-index order:
//
//	offset 0                                      page-aligned
//	┌──────────────┬───────┬───────┬───────┬───────┬──────────┐
//	│ header page  │ VOff  │ VAdj  │ EOff  │ EAdj  │  names   │
//	└──────────────┴───────┴───────┴───────┴───────┴──────────┘
//
//	header page (little-endian):
//	  [0:8)    magic "HYPLXST1"
//	  [8:12)   format version (currently 1)
//	  [12:16)  flags (must be zero)
//	  [16:24)  numV   uint64
//	  [24:32)  numE   uint64
//	  [32:40)  pins   uint64
//	  [40:240) section table: 10 × { off uint64, size uint64, crc32 }
//	  [240:244) CRC32 (IEEE) of bytes [0:240)
//	  [244:4096) zero padding
//
// The four CSR sections are mandatory and the name sections optional
// (size zero = absent).  Sections 4 and 5 once held local→original ID
// maps; they keep their table slots but must be empty, and Open
// rejects a file that fills them.  Int32 sections hold little-endian
// int32 values; name sections are an (n+1)-entry int32 offset array
// plus a concatenated UTF-8 blob.  Page alignment means a
// memory-mapped section can be viewed as []int32 in place on a
// little-endian host; every other host decodes via os.ReadAt.
const (
	storeMagic    = "HYPLXST1"
	formatVersion = 1
	pageSize      = 4096
	headerSize    = pageSize

	numSections  = 10
	secVOff      = 0
	secVAdj      = 1
	secEOff      = 2
	secEAdj      = 3
	secVertexID  = 4 // retired, always empty
	secEdgeID    = 5 // retired, always empty
	secVNameOff  = 6
	secVNameBlob = 7
	secENameOff  = 8
	secENameBlob = 9

	sectionTableOff = 40
	headerCRCOff    = sectionTableOff + numSections*20

	maxInt32 = 1<<31 - 1
)

// section locates one section within the file.  Size zero means the
// section is absent (and the offset is then ignored).
type section struct {
	off  int64
	size int64
	crc  uint32
}

// header is the decoded header page.
type header struct {
	numV, numE, pins int64
	sec              [numSections]section
}

func pagePad(n int64) int64 {
	if rem := n % pageSize; rem != 0 {
		return n + pageSize - rem
	}
	return n
}

// computeLayout assigns section offsets for the given counts: every
// non-empty section is page-aligned and they follow each other in
// section-index order.  CRCs are filled in by the writer.  A side whose
// name blob is empty carries no names at all (no offset section
// either).
func computeLayout(numV, numE, pins, vNameBlob, eNameBlob int64) header {
	h := header{numV: numV, numE: numE, pins: pins}
	h.sec[secVOff].size = 4 * (numV + 1)
	h.sec[secVAdj].size = 4 * pins
	h.sec[secEOff].size = 4 * (numE + 1)
	h.sec[secEAdj].size = 4 * pins
	if vNameBlob > 0 {
		h.sec[secVNameOff].size = 4 * (numV + 1)
		h.sec[secVNameBlob].size = vNameBlob
	}
	if eNameBlob > 0 {
		h.sec[secENameOff].size = 4 * (numE + 1)
		h.sec[secENameBlob].size = eNameBlob
	}
	cur := int64(headerSize)
	for i := range h.sec {
		if h.sec[i].size == 0 {
			continue
		}
		h.sec[i].off = cur
		cur = pagePad(cur + h.sec[i].size)
	}
	return h
}

// fileSize returns the total size of a file with this layout.
func (h *header) fileSize() int64 {
	end := int64(headerSize)
	for i := range h.sec {
		if h.sec[i].size != 0 {
			end = pagePad(h.sec[i].off + h.sec[i].size)
		}
	}
	return end
}

// encodeHeader serializes the header page.
func encodeHeader(h *header) []byte {
	b := make([]byte, headerSize)
	copy(b, storeMagic)
	binary.LittleEndian.PutUint32(b[8:], formatVersion)
	binary.LittleEndian.PutUint32(b[12:], 0) // flags
	binary.LittleEndian.PutUint64(b[16:], uint64(h.numV))
	binary.LittleEndian.PutUint64(b[24:], uint64(h.numE))
	binary.LittleEndian.PutUint64(b[32:], uint64(h.pins))
	for i := range h.sec {
		p := sectionTableOff + i*20
		binary.LittleEndian.PutUint64(b[p:], uint64(h.sec[i].off))
		binary.LittleEndian.PutUint64(b[p+8:], uint64(h.sec[i].size))
		binary.LittleEndian.PutUint32(b[p+16:], h.sec[i].crc)
	}
	binary.LittleEndian.PutUint32(b[headerCRCOff:], crc32.ChecksumIEEE(b[:headerCRCOff]))
	return b
}

// decodeHeader parses and fully validates a header page against the
// file size, before anything proportional to the declared counts is
// allocated or mapped: magic, version, flags, the int32 index-space
// caps on every count, per-section size formulas, page alignment, and
// monotone non-overlapping section placement.  A file that passes
// cannot make the loader allocate or map beyond its own (count-
// consistent) sections.
func decodeHeader(b []byte, fileSize int64) (*header, error) {
	if string(b[:8]) != storeMagic {
		return nil, fmt.Errorf("store: bad magic %q (not a hypergraph store file)", b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != formatVersion {
		return nil, fmt.Errorf("store: unsupported format version %d (this build reads version %d)", v, formatVersion)
	}
	if fl := binary.LittleEndian.Uint32(b[12:]); fl != 0 {
		return nil, fmt.Errorf("store: unknown flags %#x", fl)
	}
	if got := crc32.ChecksumIEEE(b[:headerCRCOff]); got != binary.LittleEndian.Uint32(b[headerCRCOff:]) {
		return nil, fmt.Errorf("store: header checksum mismatch")
	}
	h := &header{
		numV: int64(binary.LittleEndian.Uint64(b[16:])),
		numE: int64(binary.LittleEndian.Uint64(b[24:])),
		pins: int64(binary.LittleEndian.Uint64(b[32:])),
	}
	// The CSR index space is int32: counts beyond it mean the file
	// cannot be represented and must fail loudly here, not truncate.
	if h.numV < 0 || h.numV >= maxInt32 {
		return nil, fmt.Errorf("store: %d vertices overflow the int32 index space", uint64(h.numV))
	}
	if h.numE < 0 || h.numE >= maxInt32 {
		return nil, fmt.Errorf("store: %d hyperedges overflow the int32 index space", uint64(h.numE))
	}
	if h.pins < 0 || h.pins > maxInt32 {
		return nil, fmt.Errorf("store: %d pins overflow the int32 index space", uint64(h.pins))
	}
	for i := range h.sec {
		p := sectionTableOff + i*20
		h.sec[i].off = int64(binary.LittleEndian.Uint64(b[p:]))
		h.sec[i].size = int64(binary.LittleEndian.Uint64(b[p+8:]))
		h.sec[i].crc = binary.LittleEndian.Uint32(b[p+16:])
	}
	want := func(i int, allowed ...int64) error {
		for _, a := range allowed {
			if h.sec[i].size == a {
				return nil
			}
		}
		return fmt.Errorf("store: section %d has size %d, inconsistent with the header counts", i, h.sec[i].size)
	}
	if err := want(secVOff, 4*(h.numV+1)); err != nil {
		return nil, err
	}
	if err := want(secVAdj, 4*h.pins); err != nil {
		return nil, err
	}
	if err := want(secEOff, 4*(h.numE+1)); err != nil {
		return nil, err
	}
	if err := want(secEAdj, 4*h.pins); err != nil {
		return nil, err
	}
	if h.sec[secVertexID].size != 0 || h.sec[secEdgeID].size != 0 {
		return nil, fmt.Errorf("store: sections 4 and 5 (retired ID maps) must be empty")
	}
	if err := want(secVNameOff, 0, 4*(h.numV+1)); err != nil {
		return nil, err
	}
	if err := want(secENameOff, 0, 4*(h.numE+1)); err != nil {
		return nil, err
	}
	// A side's name offsets and blob come in pairs.
	if h.sec[secVNameOff].size == 0 && h.sec[secVNameBlob].size != 0 {
		return nil, fmt.Errorf("store: vertex name blob without a vertex name offset section")
	}
	if h.sec[secENameOff].size == 0 && h.sec[secENameBlob].size != 0 {
		return nil, fmt.Errorf("store: edge name blob without an edge name offset section")
	}
	if h.sec[secVNameBlob].size > maxInt32 || h.sec[secENameBlob].size > maxInt32 {
		return nil, fmt.Errorf("store: name blob overflows the int32 offset space")
	}
	prevEnd := int64(headerSize)
	for i := range h.sec {
		s := h.sec[i]
		if s.size == 0 {
			continue
		}
		if s.off%pageSize != 0 {
			return nil, fmt.Errorf("store: section %d offset %d is not page-aligned", i, s.off)
		}
		if s.off < prevEnd {
			return nil, fmt.Errorf("store: section %d at offset %d overlaps the previous section", i, s.off)
		}
		if s.off > fileSize || s.size > fileSize-s.off {
			return nil, fmt.Errorf("store: section %d (offset %d, size %d) extends past the %d-byte file", i, s.off, s.size, fileSize)
		}
		prevEnd = s.off + s.size
	}
	return h, nil
}
