package store_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"hyperplex/internal/check"
	"hyperplex/internal/dataset"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/store"
)

// countingSource serves the same bytes on every Open and counts the
// calls.
type countingSource struct {
	data  []byte
	opens int
}

func (s *countingSource) source(format string) store.Source {
	return store.Source{Format: format, Open: func() (io.ReadCloser, error) {
		s.opens++
		return io.NopCloser(bytes.NewReader(s.data)), nil
	}}
}

// textBytes renders h in the text format.
func textBytes(t *testing.T, h *hypergraph.Hypergraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := hypergraph.WriteText(&buf, h); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// buildBytes builds a store from data with BuildFile and returns the
// file, checking how often the build opened its source.
func buildBytes(t *testing.T, label, format string, data []byte, opens int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "built.store")
	src := &countingSource{data: data}
	if err := store.BuildFile(path, src.source(format)); err != nil {
		t.Fatalf("%s: BuildFile: %v", label, err)
	}
	if src.opens != opens {
		t.Fatalf("%s: a %s build opened its source %d times, want %d", label, format, src.opens, opens)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writeHBytes returns the store file WriteH writes for h.
func writeHBytes(t *testing.T, label string, h *hypergraph.Hypergraph) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "written.store")
	if err := store.WriteH(path, h); err != nil {
		t.Fatalf("%s: WriteH: %v", label, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBuildFileMatchesWriteH pins the one writer: BuildFile of a text
// file writes the bytes WriteH writes for ReadText of it, on Cellzome,
// the 20000-protein proteome and every sweep instance, those with no
// vertices or no hyperedges included, and BuildFile of the banded
// 2000-row Matrix Market file writes the bytes WriteH writes for its
// File.H().  A text build opens its source once, an mtx build twice.
func TestBuildFileMatchesWriteH(t *testing.T) {
	type input struct {
		label string
		h     *hypergraph.Hypergraph
	}
	texts := []input{
		{"Cellzome", dataset.Cellzome().H},
		{"proteome", dataset.SyntheticProteome(20000, 3000, 42)},
	}
	for i, h := range check.Instances(40, 0xC04E22) {
		texts = append(texts, input{fmt.Sprintf("instance %d (|V|=%d |F|=%d)", i, h.NumVertices(), h.NumEdges()), h})
	}
	for _, tc := range texts {
		data := textBytes(t, tc.h)
		read, err := hypergraph.ReadText(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: ReadText: %v", tc.label, err)
		}
		got := buildBytes(t, tc.label, "text", data, 1)
		if !bytes.Equal(got, writeHBytes(t, tc.label, read)) {
			t.Errorf("%s: BuildFile of the text differs from WriteH of ReadText", tc.label)
		}
	}

	var banded bytes.Buffer
	m := gen.SyntheticMatrix(gen.MatrixSpec{Name: "banded", Rows: 2000, Cols: 2000, Band: 10, BandFill: 0.7, RandomPerRow: 2, Seed: 0xBE})
	if err := mmio.Write(&banded, m); err != nil {
		t.Fatal(err)
	}
	got := buildBytes(t, "banded", "mtx", banded.Bytes(), 2)
	path := filepath.Join(t.TempDir(), "banded.store")
	if err := os.WriteFile(path, got, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatalf("banded: Open: %v", err)
	}
	defer st.Close()
	h, err := st.H()
	if err != nil {
		t.Fatalf("banded: H: %v", err)
	}
	if !bytes.Equal(got, writeHBytes(t, "banded", h)) {
		t.Error("banded: BuildFile of the mtx file differs from WriteH of its File.H()")
	}
}
