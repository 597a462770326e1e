package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"hyperplex/internal/check"
	"hyperplex/internal/core"
	"hyperplex/internal/csr"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/run"
	"hyperplex/internal/xrand"
)

// textOf renders h in the text format, the byte-exact fingerprint the
// round-trip tests compare.
func textOf(t *testing.T, h *hypergraph.Hypergraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := hypergraph.WriteText(&buf, h); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return buf.Bytes()
}

func sameCSR(t *testing.T, label string, got, want *csr.CSR) {
	t.Helper()
	if !slices.Equal(got.VOff, want.VOff) || !slices.Equal(got.VAdj, want.VAdj) ||
		!slices.Equal(got.EOff, want.EOff) || !slices.Equal(got.EAdj, want.EAdj) {
		t.Fatalf("%s: CSR arrays differ from in-RAM build", label)
	}
}

// inMapping reports whether all four arrays of c lie inside the
// mapping m.
func inMapping(c *csr.CSR, m []byte) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(m)))
	for _, a := range [][]int32{c.VOff, c.VAdj, c.EOff, c.EAdj} {
		if len(a) == 0 {
			continue
		}
		p := uintptr(unsafe.Pointer(&a[0]))
		if p < lo || p+4*uintptr(len(a)) > lo+uintptr(len(m)) {
			return false
		}
	}
	return true
}

// eachLoader runs body with each file loader in turn, the mapping where
// the host has one and then the os.ReadAt loader every other host
// takes, and names the loader.
func eachLoader(t *testing.T, body func(loader string)) {
	t.Helper()
	saved := useMmap
	t.Cleanup(func() { useMmap = saved })
	for _, mapped := range []bool{saved, false} {
		useMmap = mapped
		loader := "os.ReadAt"
		if mapped {
			loader = "mmap"
		}
		body(loader)
	}
	useMmap = saved
}

// TestRoundTripSweep writes every sweep instance to a store file and
// reads it back through both loaders, checking the CSR arrays, the
// names, and the text form of File.H against the original; a mapped
// file's hypergraph must read its arrays from the mapping itself.
func TestRoundTripSweep(t *testing.T) {
	for i, h := range check.Instances(40, 0xC04E21) {
		path := filepath.Join(t.TempDir(), "g.store")
		if err := WriteH(path, h); err != nil {
			t.Fatalf("instance %d: WriteH: %v", i, err)
		}
		want := h.CSR()
		wantText := textOf(t, h)
		eachLoader(t, func(loader string) {
			st, err := Open(path)
			if err != nil {
				t.Fatalf("instance %d: Open (%s): %v", i, loader, err)
			}
			label := fmt.Sprintf("instance %d (%s)", i, loader)
			h2, err := st.H()
			if err != nil {
				t.Fatalf("%s: H: %v", label, err)
			}
			sameCSR(t, label, h2.CSR(), want)
			if st.mapped != nil && !inMapping(h2.CSR(), st.mapped) {
				t.Fatalf("%s: File.H copies the mapped arrays", label)
			}
			for v := 0; v < h.NumVertices(); v++ {
				if got := h2.VertexName(v); got != h.VertexName(v) {
					t.Fatalf("%s: vertex %d name %q, want %q", label, v, got, h.VertexName(v))
				}
			}
			for f := 0; f < h.NumEdges(); f++ {
				if got := h2.EdgeName(f); got != h.EdgeName(f) {
					t.Fatalf("%s: edge %d name %q, want %q", label, f, got, h.EdgeName(f))
				}
			}
			if !bytes.Equal(textOf(t, h2), wantText) {
				t.Fatalf("%s: round-tripped hypergraph differs", label)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("%s: Close: %v", label, err)
			}
		})
	}
}

// TestNoMmapArraysSurviveClose pins Close's documented contract for the
// os.ReadAt loader: the arrays it read are heap memory and stay valid
// after Close.
func TestNoMmapArraysSurviveClose(t *testing.T) {
	h := gen.RandomHypergraph(50, 30, 5, xrand.New(7))
	path := filepath.Join(t.TempDir(), "g.store")
	if err := WriteH(path, h); err != nil {
		t.Fatalf("WriteH: %v", err)
	}
	saved := useMmap
	useMmap = false
	t.Cleanup(func() { useMmap = saved })
	st, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	h2, err := st.H()
	if err != nil {
		t.Fatalf("H: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !bytes.Equal(textOf(t, h2), textOf(t, h)) {
		t.Fatal("the os.ReadAt loader's arrays changed after Close")
	}
}

// TestOpenRejectsIDMaps fills sections 4 and 5, where files once
// carried local→original ID maps, with well-formed maps of the right
// sizes and valid checksums: Open must reject the file and name the
// sections, through either loader.
func TestOpenRejectsIDMaps(t *testing.T) {
	h := unnamed(t, gen.RandomHypergraph(20, 15, 4, xrand.New(3)).CSR())
	path := filepath.Join(t.TempDir(), "g.store")
	if err := WriteH(path, h); err != nil {
		t.Fatalf("WriteH: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := decodeHeader(b[:headerSize], int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	// An unnamed file ends with EAdj, so the maps go after it, each
	// entry its own ID doubled.
	for _, m := range []struct{ sec, n int }{{secVertexID, h.NumVertices()}, {secEdgeID, h.NumEdges()}} {
		b = append(b, make([]byte, pagePad(int64(len(b)))-int64(len(b)))...)
		ids := make([]byte, 4*m.n)
		for i := 0; i < m.n; i++ {
			binary.LittleEndian.PutUint32(ids[4*i:], uint32(2*i))
		}
		hdr.sec[m.sec] = section{off: int64(len(b)), size: int64(len(ids)), crc: crc32.ChecksumIEEE(ids)}
		b = append(b, ids...)
	}
	copy(b, encodeHeader(hdr))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	eachLoader(t, func(loader string) {
		f, err := Open(path)
		if err == nil {
			f.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "sections 4 and 5") {
			t.Errorf("Open (%s) of a file with ID maps: err = %v, want one naming sections 4 and 5", loader, err)
		}
	})
}

// TestMTXStoreHAllocs pins what File.H allocates on an unnamed,
// mtx-built store: the Hypergraph alone, since it aliases all four of
// the file's arrays and has no names to index.
func TestMTXStoreHAllocs(t *testing.T) {
	h := gen.RandomHypergraph(300, 200, 6, xrand.New(5))
	var buf bytes.Buffer
	if err := mmio.Write(&buf, mmio.FromHypergraph(h)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.store")
	if err := BuildFile(path, memSource("mtx", buf.Bytes())); err != nil {
		t.Fatalf("BuildFile: %v", err)
	}
	eachLoader(t, func(loader string) {
		st, err := Open(path)
		if err != nil {
			t.Fatalf("Open (%s): %v", loader, err)
		}
		got := testing.AllocsPerRun(20, func() {
			st.h = nil // H caches its result
			if _, err := st.H(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 1 {
			t.Errorf("File.H (%s): %v allocations, want 1", loader, got)
		}
		st.Close()
	})
}

// corruptCase mutates a valid store file and names the error Open must
// return.
type corruptCase struct {
	name   string
	mutate func(b []byte) []byte
	want   string
}

// fixHeaderCRC recomputes the header checksum after a deliberate
// header mutation, so the test reaches the targeted validation.
func fixHeaderCRC(b []byte) {
	binary.LittleEndian.PutUint32(b[headerCRCOff:], crc32.ChecksumIEEE(b[:headerCRCOff]))
}

// TestOpenRejectsCorruptFiles drives Open through every failure edge
// of the format: truncation, flipped bytes in header and sections,
// version and flag skew, and counts beyond the int32 index space.
func TestOpenRejectsCorruptFiles(t *testing.T) {
	h := gen.RandomHypergraph(60, 40, 5, xrand.New(11))
	dir := t.TempDir()
	path := filepath.Join(dir, "g.store")
	if err := WriteH(path, h); err != nil {
		t.Fatalf("WriteH: %v", err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []corruptCase{
		{"empty", func(b []byte) []byte { return nil }, "truncated"},
		{"short header", func(b []byte) []byte { return b[:100] }, "truncated"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"version skew", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 2)
			fixHeaderCRC(b)
			return b
		}, "unsupported format version 2"},
		{"unknown flags", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], 0x8000)
			fixHeaderCRC(b)
			return b
		}, "unknown flags"},
		{"header bit flip", func(b []byte) []byte { b[20] ^= 1; return b }, "header checksum mismatch"},
		{"vertex count overflow", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 1<<40)
			fixHeaderCRC(b)
			return b
		}, "overflow the int32 index space"},
		{"pin count overflow", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:], 1<<33)
			fixHeaderCRC(b)
			return b
		}, "overflow the int32 index space"},
		{"section bit flip", func(b []byte) []byte { b[headerSize+3] ^= 0x40; return b }, "checksum mismatch"},
		{"chopped section", func(b []byte) []byte { return b[:headerSize+10] }, "extends past"},
		{"misaligned section", func(b []byte) []byte {
			p := sectionTableOff // section 0 offset field
			binary.LittleEndian.PutUint64(b[p:], uint64(headerSize+4))
			fixHeaderCRC(b)
			return b
		}, "not page-aligned"},
		{"inconsistent section size", func(b []byte) []byte {
			p := sectionTableOff + 8
			binary.LittleEndian.PutUint64(b[p:], uint64(binary.LittleEndian.Uint64(b[p:]))+4)
			fixHeaderCRC(b)
			return b
		}, "inconsistent with the header counts"},
	}
	for _, tc := range cases {
		eachLoader(t, func(loader string) {
			p := filepath.Join(dir, "bad.store")
			if err := os.WriteFile(p, tc.mutate(slices.Clone(orig)), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(p)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s (%s): Open err = %v, want substring %q", tc.name, loader, err, tc.want)
			}
		})
	}
}

// unnamed wraps c as a hypergraph without names, whose store file
// carries no name sections.
func unnamed(t *testing.T, c *csr.CSR) *hypergraph.Hypergraph {
	t.Helper()
	h, err := hypergraph.FromCSR(c, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestOpenRejectsBadOffsets writes CSRs whose checksums are valid but
// whose interior offsets point past the pins: Open must report the
// structural error, not panic slicing a row.
func TestOpenRejectsBadOffsets(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []*csr.CSR{
		{VOff: []int32{0, 100, 2}, VAdj: []int32{0, 0}, EOff: []int32{0, 2}, EAdj: []int32{0, 1}},
		{VOff: []int32{0, 1, 2}, VAdj: []int32{0, 1}, EOff: []int32{0, 100, 2}, EAdj: []int32{0, 1}},
	} {
		p := filepath.Join(dir, "bad.store")
		if err := WriteH(p, unnamed(t, c)); err != nil {
			t.Fatalf("WriteH: %v", err)
		}
		eachLoader(t, func(loader string) {
			if f, err := Open(p); err == nil {
				f.Close()
				t.Fatalf("Open (%s) accepted VOff %v, EOff %v", loader, c.VOff, c.EOff)
			}
		})
	}
}

// TestOpenChargesValidateCursor: the structural check's per-vertex
// cursor is charged to the MaxAlloc budget, so a budget of less than
// 4 bytes per vertex rejects Open, through either loader.
func TestOpenChargesValidateCursor(t *testing.T) {
	h := gen.RandomHypergraph(500, 300, 6, xrand.New(3))
	p := filepath.Join(t.TempDir(), "g.store")
	if err := WriteH(p, h); err != nil {
		t.Fatalf("WriteH: %v", err)
	}
	cursor := 4 * int64(h.NumVertices())
	open := func(maxAlloc int64) error {
		ctx, _ := run.WithBudget(context.Background(), run.Budget{MaxAlloc: maxAlloc})
		f, err := OpenCtx(ctx, p)
		if err == nil {
			f.Close()
		}
		return err
	}
	eachLoader(t, func(loader string) {
		if err := open(cursor - 1); !errors.Is(err, run.ErrBudgetExceeded) {
			t.Errorf("Open (%s) under a %d-byte budget: err = %v, want ErrBudgetExceeded", loader, cursor-1, err)
		}
		if err := open(cursor); err != nil {
			t.Errorf("Open (%s) under a %d-byte budget: %v", loader, cursor, err)
		}
	})
}

// memSource serves the same in-memory bytes on every Open.
func memSource(format string, data []byte) Source {
	return Source{Format: format, Open: func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(data)), nil
	}}
}

// TestBuildTextDifferential pins the streaming text builder to the
// in-RAM path: for every sweep instance the built store must equal
// ReadText exactly — arrays, names, and text round-trip.
func TestBuildTextDifferential(t *testing.T) {
	for i, h := range check.Instances(40, 0xC04E22) {
		data := textOf(t, h)
		want, err := hypergraph.ReadText(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("instance %d: ReadText: %v", i, err)
		}
		path := filepath.Join(t.TempDir(), "g.store")
		if err := BuildFile(path, memSource("text", data)); err != nil {
			t.Fatalf("instance %d: BuildFile: %v", i, err)
		}
		st, err := Open(path)
		if err != nil {
			t.Fatalf("instance %d: Open: %v", i, err)
		}
		h2, err := st.H()
		if err != nil {
			t.Fatalf("instance %d: H: %v", i, err)
		}
		sameCSR(t, fmt.Sprintf("instance %d", i), h2.CSR(), want.CSR())
		if !bytes.Equal(textOf(t, h2), textOf(t, want)) {
			t.Fatalf("instance %d: built store text differs from ReadText", i)
		}
		st.Close()
	}
}

// TestBuildMTXDifferential pins the streaming MatrixMarket builder to
// mmio.Read + ToHypergraph: identical structure (the built store
// carries no names).
func TestBuildMTXDifferential(t *testing.T) {
	rng := xrand.New(0xC04E23)
	var inputs [][]byte
	for k := 0; k < 8; k++ {
		h := gen.RandomHypergraph(10+int(rng.Intn(50)), 5+int(rng.Intn(40)), 1+int(rng.Intn(6)), rng)
		var buf bytes.Buffer
		if err := mmio.Write(&buf, mmio.FromHypergraph(h)); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, buf.Bytes())
	}
	inputs = append(inputs,
		[]byte("%%MatrixMarket matrix coordinate real symmetric\n4 4 5\n1 1 1.0\n2 1 1.0\n3 2 2.0\n4 3 1.0\n4 4 1.0\n"),
		[]byte("%%MatrixMarket matrix coordinate pattern general\n3 4 5\n1 1\n2 1\n2 1\n3 3\n1 3\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\n5 3 0\n"),
	)
	for i, data := range inputs {
		m, err := mmio.Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("input %d: mmio.Read: %v", i, err)
		}
		wantH, err := mmio.ToHypergraph(m)
		if err != nil {
			t.Fatalf("input %d: ToHypergraph: %v", i, err)
		}
		want := wantH.CSR()
		path := filepath.Join(t.TempDir(), "g.store")
		if err := BuildFile(path, memSource("mtx", data)); err != nil {
			t.Fatalf("input %d: BuildFile: %v", i, err)
		}
		st, err := Open(path)
		if err != nil {
			t.Fatalf("input %d: Open: %v", i, err)
		}
		h, err := st.H()
		if err != nil {
			t.Fatalf("input %d: H: %v", i, err)
		}
		got := h.CSR()
		if !slices.Equal(got.VOff, want.VOff) || !slices.Equal(got.VAdj, want.VAdj) ||
			!slices.Equal(got.EOff, want.EOff) || !slices.Equal(got.EAdj, want.EAdj) {
			t.Fatalf("input %d: built store structure differs from mmio.Read+ToHypergraph", i)
		}
		st.Close()
	}
}

// flipFlopSource returns different bytes on the first and second Open,
// simulating a source mutated mid-build.
type flipFlopSource struct {
	first, second []byte
	opens         int
}

func (s *flipFlopSource) source(format string) Source {
	return Source{Format: format, Open: func() (io.ReadCloser, error) {
		s.opens++
		if s.opens == 1 {
			return io.NopCloser(bytes.NewReader(s.first)), nil
		}
		return io.NopCloser(bytes.NewReader(s.second)), nil
	}}
}

// TestBuildDetectsChangedInput: an mtx source that changes between the
// two passes must fail the build, and dst must not appear.  A text
// build reads its source once, so it has no second pass to compare.
func TestBuildDetectsChangedInput(t *testing.T) {
	cases := []struct{ name, format, first, second string }{
		{"mtx resized", "mtx",
			"%%MatrixMarket matrix coordinate pattern general\n3 2 2\n1 1\n2 2\n",
			"%%MatrixMarket matrix coordinate pattern general\n4 2 2\n1 1\n2 2\n"},
		{"mtx moved entry", "mtx",
			"%%MatrixMarket matrix coordinate pattern general\n3 2 2\n1 1\n2 2\n",
			"%%MatrixMarket matrix coordinate pattern general\n3 2 2\n1 2\n2 2\n"},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		dst := filepath.Join(dir, "g.store")
		ff := &flipFlopSource{first: []byte(tc.first), second: []byte(tc.second)}
		err := BuildFile(dst, ff.source(tc.format))
		if err == nil || !strings.Contains(err.Error(), "input changed between passes") {
			t.Fatalf("%s: err = %v, want input-changed", tc.name, err)
		}
		if _, serr := os.Stat(dst); !errors.Is(serr, os.ErrNotExist) {
			t.Fatalf("%s: destination exists after failed build", tc.name)
		}
		ents, _ := os.ReadDir(dir)
		if len(ents) != 0 {
			t.Fatalf("%s: temp litter after failed build: %v", tc.name, ents)
		}
	}
}

// budgetedText synthesizes a text instance whose pin arrays dominate
// its vertex/edge counts: 2000 hyperedges of 150 distinct members over
// 200 vertices = 300k pins, 2.4 MB of pin arrays (and ~1.4 MB of
// source text, which the in-RAM reader charges byte for byte).
func budgetedText() []byte {
	var buf bytes.Buffer
	for f := 0; f < 2000; f++ {
		fmt.Fprintf(&buf, "e%d:", f)
		for k := 0; k < 150; k++ {
			fmt.Fprintf(&buf, " v%d", (f*7+k)%200)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestBuildUnderAllocBudget is the out-of-core acceptance check: the
// streaming build completes under a run.MaxAlloc budget smaller than
// the pin arrays, the in-RAM reader provably cannot load the same
// input under that budget, and the resulting store decomposes to the
// same answer as the in-RAM pipeline.
func TestBuildUnderAllocBudget(t *testing.T) {
	data := budgetedText()
	budget := run.Budget{MaxAlloc: 1 << 20} // 1 MB < 2.4 MB of pins

	// The in-RAM reader trips the budget...
	ctx, _ := run.WithBudget(context.Background(), budget)
	if _, err := hypergraph.ReadTextCtx(ctx, bytes.NewReader(data)); !errors.Is(err, run.ErrBudgetExceeded) {
		t.Fatalf("ReadTextCtx under budget: err = %v, want ErrBudgetExceeded", err)
	}

	// ...the streaming build does not.
	ctx, _ = run.WithBudget(context.Background(), budget)
	path := filepath.Join(t.TempDir(), "g.store")
	if err := BuildFileCtx(ctx, path, memSource("text", data)); err != nil {
		t.Fatalf("BuildFileCtx under budget: %v", err)
	}

	st, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	want, err := hypergraph.ReadText(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := st.H()
	if err != nil {
		t.Fatal(err)
	}
	gotD, wantD := core.Decompose(sh), core.Decompose(want)
	if gotD.MaxK != wantD.MaxK ||
		!slices.Equal(gotD.VertexCoreness, wantD.VertexCoreness) ||
		!slices.Equal(gotD.EdgeCoreness, wantD.EdgeCoreness) {
		t.Fatal("budget-built store decomposes differently from the in-RAM pipeline")
	}
}

// TestBuildRejectsUnknownFormat closes the Source.Format contract.
func TestBuildRejectsUnknownFormat(t *testing.T) {
	err := BuildFile(filepath.Join(t.TempDir(), "g.store"), memSource("pajek", nil))
	if err == nil || !strings.Contains(err.Error(), "unknown source format") {
		t.Fatalf("err = %v", err)
	}
}

// TestWriteAtomicOnCancel: a cancelled WriteHCtx must leave neither the
// destination nor temp litter behind.
func TestWriteAtomicOnCancel(t *testing.T) {
	h := gen.RandomHypergraph(200, 150, 6, xrand.New(5))
	dir := t.TempDir()
	dst := filepath.Join(dir, "g.store")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := WriteHCtx(ctx, dst, h); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Fatalf("temp litter after cancelled write: %v", ents)
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)-th call on, so a build can be cancelled at each of its
// checkpoints in turn.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// builtBytes builds a store from data and returns the file.
func builtBytes(t *testing.T, format string, data []byte) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "built.store")
	if err := BuildFile(path, memSource(format, data)); err != nil {
		t.Fatalf("%s BuildFile (mapped %v): %v", format, useMmap, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBuildUnmappedPins drives the pread/pwrite pin files that every
// non-linux or big-endian host builds through: with the mapping off,
// the text and mtx builds write the mapped builds' bytes, for pin
// arrays of several 64 KiB chunks.  A build cancelled at any one of
// its checkpoints, mapped or not, must return context.Canceled and
// leave neither the destination nor a temp or scratch file.
func TestBuildUnmappedPins(t *testing.T) {
	saved := useMmap
	t.Cleanup(func() { useMmap = saved })
	mtxOf := func(h *hypergraph.Hypergraph) []byte {
		var buf bytes.Buffer
		if err := mmio.Write(&buf, mmio.FromHypergraph(h)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	large := gen.RandomHypergraph(5000, 4000, 16, xrand.New(8))
	small := gen.RandomHypergraph(30, 20, 5, xrand.New(9))
	inputs := []struct {
		format      string
		data, small []byte
	}{
		{"text", textOf(t, large), textOf(t, small)},
		{"mtx", mtxOf(large), mtxOf(small)},
	}
	for _, in := range inputs {
		useMmap = saved
		mapped := builtBytes(t, in.format, in.data)
		useMmap = false
		if !bytes.Equal(builtBytes(t, in.format, in.data), mapped) {
			t.Errorf("the unmapped %s build differs from the mapped one", in.format)
		}
	}

	for _, mapping := range []bool{saved, false} {
		useMmap = mapping
		for _, in := range inputs {
			for k := 0; ; k++ {
				label := fmt.Sprintf("%s (mapped %v) cancelled at checkpoint %d", in.format, mapping, k)
				dir := t.TempDir()
				dst := filepath.Join(dir, "g.store")
				err := BuildFileCtx(&cancelAfter{Context: context.Background(), n: k}, dst, memSource(in.format, in.small))
				ents, _ := os.ReadDir(dir)
				if err == nil {
					if len(ents) != 1 {
						t.Fatalf("%s: the finished build left %v", label, ents)
					}
					if k < 10 {
						t.Fatalf("%s: finished after only %d checkpoints", label, k)
					}
					break
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: err = %v, want context.Canceled", label, err)
				}
				if len(ents) != 0 {
					t.Fatalf("%s: left %v behind", label, ents)
				}
			}
		}
	}
}
