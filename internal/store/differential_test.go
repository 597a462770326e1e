package store_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"hyperplex/internal/check"
	"hyperplex/internal/core"
	"hyperplex/internal/cover"
	"hyperplex/internal/csr"
	"hyperplex/internal/dataset"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/store"
)

// viaStore round-trips h through a store file and returns the mapped
// (or, on non-mmap platforms, ReadAt-loaded) view.  The cleanup keeps
// the mapping alive for the test body.
func viaStore(t *testing.T, h *hypergraph.Hypergraph) (*store.File, *hypergraph.Hypergraph) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.store")
	if err := store.WriteH(path, h); err != nil {
		t.Fatalf("WriteH: %v", err)
	}
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	hs, err := st.H()
	if err != nil {
		t.Fatalf("H: %v", err)
	}
	return st, hs
}

func sameDecomposition(t *testing.T, label string, got, want *core.Decomposition) {
	t.Helper()
	if got.MaxK != want.MaxK ||
		!slices.Equal(got.VertexCoreness, want.VertexCoreness) ||
		!slices.Equal(got.EdgeCoreness, want.EdgeCoreness) {
		t.Fatalf("%s: store-backed decomposition differs from in-RAM", label)
	}
}

// TestStoreDecomposeDifferential pins the mmap-backed decomposition
// byte-identical to the in-RAM path over the full sweep: the paper's
// overlap peel (check.OverlapDecompose) and the CSR kernel both read
// the hypergraph through the store-served arrays and must produce
// exactly the in-RAM answer.
func TestStoreDecomposeDifferential(t *testing.T) {
	for i, h := range check.Instances(58, 0xC04E31) {
		_, hs := viaStore(t, h)
		sameDecomposition(t, labelOf(i), check.OverlapDecompose(hs), check.OverlapDecompose(h))
		gotC := csr.Decompose(csr.FromH(hs), 1)
		wantC := csr.Decompose(csr.FromH(h), 1)
		if gotC.MaxK != wantC.MaxK ||
			!slices.Equal(gotC.VertexCoreness, wantC.VertexCoreness) ||
			!slices.Equal(gotC.EdgeCoreness, wantC.EdgeCoreness) {
			t.Fatalf("%s: store-backed CSR decomposition differs from in-RAM", labelOf(i))
		}
	}
}

func labelOf(i int) string { return fmt.Sprintf("instance %d", i) }

// TestStoreCoverDifferential pins the greedy multicover over the
// store-backed view: same vertices, same selection order, bitwise the
// same weight, across the sweep.
func TestStoreCoverDifferential(t *testing.T) {
	for i, h := range check.Instances(58, 0xC04E31) {
		_, hs := viaStore(t, h)
		want, wantErr := cover.CSRGreedyMulticover(h, nil, nil)
		got, gotErr := cover.CSRGreedyMulticover(hs, nil, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: %v vs %v", labelOf(i), gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: store-backed cover differs from in-RAM", labelOf(i))
		}
	}
}

// TestStoreCellzomeDifferential runs the paper's headline pipeline —
// the calibrated Cellzome instance, its core decomposition, and the
// greedy cover — through a store file and demands exact agreement,
// including the planted 6-core of 41 proteins.
func TestStoreCellzomeDifferential(t *testing.T) {
	inst := dataset.Cellzome()
	h := inst.H
	_, hs := viaStore(t, h)

	wantD := core.Decompose(h)
	gotD := core.Decompose(hs)
	sameDecomposition(t, "cellzome", gotD, wantD)
	nv := 0
	for _, k := range gotD.VertexCoreness {
		if k == gotD.MaxK {
			nv++
		}
	}
	if gotD.MaxK != 6 || nv != 41 {
		t.Fatalf("store-backed maximum core is the %d-core with %d proteins, want the 6-core with 41", gotD.MaxK, nv)
	}

	want, wantErr := cover.CSRGreedyMulticover(h, nil, nil)
	got, gotErr := cover.CSRGreedyMulticover(hs, nil, nil)
	if wantErr != nil || gotErr != nil {
		t.Fatalf("cover errors: %v vs %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("store-backed Cellzome cover differs from in-RAM")
	}
}
