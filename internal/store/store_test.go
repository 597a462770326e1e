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

// TestRoundTripSweep writes every sweep instance to a store file and
// reads it back through both loaders, checking the CSR arrays, the
// names, and the builder-layer view against the original.
func TestRoundTripSweep(t *testing.T) {
	for i, h := range check.Instances(40, 0xC04E21) {
		path := filepath.Join(t.TempDir(), "g.store")
		if err := WriteH(path, h); err != nil {
			t.Fatalf("instance %d: WriteH: %v", i, err)
		}
		want := h.CSR()
		wantText := textOf(t, h)
		for _, opts := range []Options{{}, {NoMmap: true}, {NoMmap: true, SkipVerify: true}} {
			st, err := Open(path, opts)
			if err != nil {
				t.Fatalf("instance %d: Open(%+v): %v", i, opts, err)
			}
			label := fmt.Sprintf("instance %d (%+v)", i, opts)
			sameCSR(t, label, st.CSR(), want)
			for v := 0; v < h.NumVertices(); v++ {
				if got := st.VertexName(int32(v)); got != h.VertexName(v) {
					t.Fatalf("%s: vertex %d name %q, want %q", label, v, got, h.VertexName(v))
				}
			}
			for f := 0; f < h.NumEdges(); f++ {
				if got := st.EdgeName(int32(f)); got != h.EdgeName(f) {
					t.Fatalf("%s: edge %d name %q, want %q", label, f, got, h.EdgeName(f))
				}
			}
			h2, err := st.H()
			if err != nil {
				t.Fatalf("%s: H: %v", label, err)
			}
			if !bytes.Equal(textOf(t, h2), wantText) {
				t.Fatalf("%s: round-tripped hypergraph differs", label)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("%s: Close: %v", label, err)
			}
		}
	}
}

// TestNoMmapArraysSurviveClose pins the documented contract dataset
// loading relies on: a NoMmap store's arrays stay valid after Close.
func TestNoMmapArraysSurviveClose(t *testing.T) {
	h := gen.RandomHypergraph(50, 30, 5, xrand.New(7))
	path := filepath.Join(t.TempDir(), "g.store")
	if err := WriteH(path, h); err != nil {
		t.Fatalf("WriteH: %v", err)
	}
	st, err := Open(path, Options{NoMmap: true})
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
		t.Fatal("NoMmap arrays changed after Close")
	}
}

// TestOpenRejectsIDMaps fills sections 4 and 5, where files once
// carried local→original ID maps, with well-formed maps of the right
// sizes and valid checksums: Open must reject the file and name the
// sections, whether or not it verifies.
func TestOpenRejectsIDMaps(t *testing.T) {
	h := gen.RandomHypergraph(20, 15, 4, xrand.New(3))
	path := filepath.Join(t.TempDir(), "g.store")
	if err := Write(path, h.CSR(), nil, nil); err != nil {
		t.Fatalf("Write: %v", err)
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
	for _, opts := range []Options{{}, {NoMmap: true}, {SkipVerify: true}} {
		f, err := Open(path, opts)
		if err == nil {
			f.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "sections 4 and 5") {
			t.Errorf("Open(%+v) of a file with ID maps: err = %v, want one naming sections 4 and 5", opts, err)
		}
	}
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
	for _, opts := range []Options{{}, {NoMmap: true}} {
		st, err := Open(path, opts)
		if err != nil {
			t.Fatalf("Open(%+v): %v", opts, err)
		}
		got := testing.AllocsPerRun(20, func() {
			st.h = nil // H caches its result
			if _, err := st.H(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 1 {
			t.Errorf("File.H (%+v): %v allocations, want 1", opts, got)
		}
		st.Close()
	}
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
		for _, opts := range []Options{{}, {NoMmap: true}} {
			p := filepath.Join(dir, "bad.store")
			if err := os.WriteFile(p, tc.mutate(slices.Clone(orig)), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(p, opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s (%+v): Open err = %v, want substring %q", tc.name, opts, err, tc.want)
			}
		}
	}
	// SkipVerify must still reject everything except payload bit flips.
	for _, tc := range cases {
		if tc.name == "section bit flip" {
			continue
		}
		p := filepath.Join(dir, "bad.store")
		if err := os.WriteFile(p, tc.mutate(slices.Clone(orig)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p, Options{SkipVerify: true}); err == nil {
			t.Fatalf("%s: SkipVerify Open accepted a structurally invalid file", tc.name)
		}
	}
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
		if err := Write(p, c, nil, nil); err != nil {
			t.Fatalf("Write: %v", err)
		}
		for _, opts := range []Options{{}, {NoMmap: true}} {
			if f, err := Open(p, opts); err == nil {
				f.Close()
				t.Fatalf("Open(%+v) accepted VOff %v, EOff %v", opts, c.VOff, c.EOff)
			}
		}
	}
}

// TestOpenChargesValidateCursor: the structural check's per-vertex
// cursor is charged to the MaxAlloc budget, so a budget of less than
// 4 bytes per vertex rejects a verified Open, while a skipped verify
// allocates no cursor and charges nothing.
func TestOpenChargesValidateCursor(t *testing.T) {
	h := gen.RandomHypergraph(500, 300, 6, xrand.New(3))
	p := filepath.Join(t.TempDir(), "g.store")
	if err := WriteH(p, h); err != nil {
		t.Fatalf("WriteH: %v", err)
	}
	cursor := 4 * int64(h.NumVertices())
	open := func(maxAlloc int64, opts Options) error {
		ctx, _ := run.WithBudget(context.Background(), run.Budget{MaxAlloc: maxAlloc})
		f, err := OpenCtx(ctx, p, opts)
		if err == nil {
			f.Close()
		}
		return err
	}
	for _, opts := range []Options{{}, {NoMmap: true}} {
		if err := open(cursor-1, opts); !errors.Is(err, run.ErrBudgetExceeded) {
			t.Errorf("Open(%+v) under a %d-byte budget: err = %v, want ErrBudgetExceeded", opts, cursor-1, err)
		}
		if err := open(cursor, opts); err != nil {
			t.Errorf("Open(%+v) under a %d-byte budget: %v", opts, cursor, err)
		}
		if err := open(1, Options{NoMmap: opts.NoMmap, SkipVerify: true}); err != nil {
			t.Errorf("Open(%+v, SkipVerify) under a 1-byte budget: %v", opts, err)
		}
	}
}

// TestWriteRejectsBadInput covers the writer-side validations.
func TestWriteRejectsBadInput(t *testing.T) {
	h := gen.RandomHypergraph(10, 5, 3, xrand.New(1))
	c := h.CSR()
	dir := t.TempDir()
	if err := Write(filepath.Join(dir, "a.store"), c, make([]string, 3), nil); err == nil ||
		!strings.Contains(err.Error(), "vertex names") {
		t.Fatalf("short vertex names: err = %v", err)
	}
	if err := Write(filepath.Join(dir, "b.store"), c, nil, make([]string, 99)); err == nil ||
		!strings.Contains(err.Error(), "edge names") {
		t.Fatalf("short edge names: err = %v", err)
	}
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
		st, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("instance %d: Open: %v", i, err)
		}
		sameCSR(t, fmt.Sprintf("instance %d", i), st.CSR(), want.CSR())
		h2, err := st.H()
		if err != nil {
			t.Fatalf("instance %d: H: %v", i, err)
		}
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
		st, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("input %d: Open: %v", i, err)
		}
		got := st.CSR()
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

// TestBuildDetectsChangedInput: a source that changes between the two
// passes must fail the build, and dst must not appear.
func TestBuildDetectsChangedInput(t *testing.T) {
	cases := []struct{ name, format, first, second string }{
		{"text new vertex", "text", "e0: a b\ne1: b c\n", "e0: a b\ne1: b d\n"},
		{"text degree shift", "text", "e0: a b c\n", "e0: a b\nvertex c\n"},
		{"text extra edge", "text", "e0: a b\n", "e0: a b\ne1: a\n"},
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

	st, err := Open(path, Options{})
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

// TestWriteAtomicOnCancel: a cancelled WriteCtx must leave neither the
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
