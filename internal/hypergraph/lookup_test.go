package hypergraph_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hyperplex/internal/csr"
	"hyperplex/internal/dataset"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/store"
)

// readTextAllocs is the exact allocation count of one ReadTextCtx of
// the 20000-protein synthetic proteome (seed 42): the growth of the
// flat rows, the offsets and the two name tables, and the vertex side
// of the CSR; no line allocates, since the scanner hands every name
// over as bytes.  It moves only on purpose, with the reason in
// CHANGES.md.
const readTextAllocs = 118

// TestReadTextAllocs pins the text reader's allocations on the
// proteome that hgbench's baits workload reads.
func TestReadTextAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := hypergraph.WriteText(&buf, dataset.SyntheticProteome(20000, 3000, 42)); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(3, func() {
		if _, err := hypergraph.ReadTextCtx(context.Background(), bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if got != readTextAllocs {
		t.Fatalf("ReadTextCtx of the proteome: %v allocations, want %d", got, readTextAllocs)
	}
}

// TestCSRAliases pins CSR as the hypergraph's own arrays, on Cellzome
// and on a store-opened hypergraph: it allocates nothing and every row
// it gives shares storage with Vertices and Edges.  That a mapped
// store's hypergraph reads its arrays from the mapping is pinned in
// the store package (TestRoundTripSweep).
func TestCSRAliases(t *testing.T) {
	cz := dataset.Cellzome().H
	path := filepath.Join(t.TempDir(), "cz.store")
	if err := store.WriteH(path, cz); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	opened, err := st.H()
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []int32) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }
	for _, tc := range []struct {
		name string
		h    *hypergraph.Hypergraph
	}{{"Cellzome", cz}, {"store", opened}} {
		h := tc.h
		var c *csr.CSR
		if allocs := testing.AllocsPerRun(100, func() { c = h.CSR() }); allocs != 0 {
			t.Errorf("%s: CSR made %v allocations, want 0", tc.name, allocs)
		}
		for f := 0; f < h.NumEdges(); f++ {
			if !same(c.EdgeVertices(int32(f)), h.Vertices(f)) {
				t.Fatalf("%s: hyperedge %d's CSR row is not Vertices(%d)", tc.name, f, f)
			}
		}
		for v := 0; v < h.NumVertices(); v++ {
			if !same(c.VertexEdges(int32(v)), h.Edges(v)) {
				t.Fatalf("%s: vertex %d's CSR row is not Edges(%d)", tc.name, v, v)
			}
		}
	}
}

// TestConcurrentFirstLookup runs the first name lookups of a shared
// hypergraph from several goroutines at once: on FromEdgeSets' names,
// whose index is built by whichever lookup comes first, and on a
// store-opened hypergraph with names.  Every lookup must find its ID;
// the race detector checks the index is built once and published
// safely.
func TestConcurrentFirstLookup(t *testing.T) {
	generated, err := hypergraph.FromEdgeSets(3000, [][]int32{{0, 1, 2}, {2, 2999}, {}, {17}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "named.store")
	if err := store.WriteH(path, dataset.SyntheticProteome(2000, 300, 7)); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	opened, err := st.H()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		h    *hypergraph.Hypergraph
	}{{"FromEdgeSets", generated}, {"store", opened}} {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.h
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					// Each goroutine starts at another vertex, so the
					// first lookups differ.
					for i := 0; i < h.NumVertices(); i++ {
						v := (i + g*h.NumVertices()/8) % h.NumVertices()
						if id, ok := h.VertexID(h.VertexName(v)); !ok || id != v {
							t.Errorf("goroutine %d: VertexID(%q) = %d, %v, want %d", g, h.VertexName(v), id, ok, v)
							return
						}
					}
					for f := 0; f < h.NumEdges(); f++ {
						if id, ok := h.EdgeID(h.EdgeName(f)); !ok || id != f {
							t.Errorf("goroutine %d: EdgeID(%q) = %d, %v, want %d", g, h.EdgeName(f), id, ok, f)
							return
						}
					}
				}(g)
			}
			close(start)
			wg.Wait()
		})
	}
}

// TestReadersAgreeOnFirstFault feeds a file with two faults, a
// repeated hyperedge name on line 2 and a line without a colon on line
// 3, to the in-memory reader and to the store's streaming build: both
// must stop at the first fault in file order with the same error.
func TestReadersAgreeOnFirstFault(t *testing.T) {
	for _, text := range []string{
		"c1: a b\nc1: b c\nc3 a\n",
		"c1: a b\nc3 a\nc1: b c\n",
		"c1: a b\nc2: b c\nc2: a\n",
	} {
		_, readErr := hypergraph.ReadText(strings.NewReader(text))
		dir := t.TempDir()
		src := filepath.Join(dir, "in.txt")
		if err := os.WriteFile(src, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		buildErr := store.BuildFile(filepath.Join(dir, "out.store"), store.FileSource("text", src))
		if readErr == nil || buildErr == nil || readErr.Error() != buildErr.Error() {
			t.Errorf("%q: ReadText says %v, store.BuildFile says %v", text, readErr, buildErr)
		}
	}
}
