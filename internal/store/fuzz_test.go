package store_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hyperplex/internal/csr"
	"hyperplex/internal/gen"
	"hyperplex/internal/store"
	"hyperplex/internal/xrand"
)

// fuzzSeedBytes builds the byte image of a small valid store so the
// fuzzer starts from reachable file structure rather than pure noise.
func fuzzSeedBytes(t testing.TB) []byte {
	t.Helper()
	h := gen.RandomHypergraph(13, 9, 4, xrand.New(0xF022))
	path := filepath.Join(t.TempDir(), "seed.store")
	if err := store.WriteH(path, h); err != nil {
		t.Fatalf("WriteH: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	return b
}

// FuzzStoreRoundTrip feeds arbitrary bytes to Open.  Any input must
// either be rejected with an error or open into a store; no input may
// panic, hang, or allocate past the header-declared sizes.  When the
// store's hypergraph view accepts it (it rejects a repeated name), its
// arrays pass csr.Validate, every non-empty name is found again at its
// own ID, and WriteH of the view round-trips every array and name.
func FuzzStoreRoundTrip(f *testing.F) {
	seed := fuzzSeedBytes(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:4096])
	truncHeader := slices.Clone(seed[:244])
	f.Add(truncHeader)
	flipped := slices.Clone(seed)
	flipped[4096] ^= 0x20
	f.Add(flipped)
	f.Add([]byte("HYPLXST1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.store")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		st, err := store.Open(path, store.Options{NoMmap: true})
		if err != nil {
			return // rejected, fine
		}
		defer st.Close()
		h, err := st.H()
		if err != nil {
			return // a repeated name, rejected
		}
		c := h.CSR()
		// Open validated the structure; a second pass must agree.
		if err := c.Validate(); err != nil {
			t.Fatalf("opened store fails validation: %v", err)
		}
		for v := 0; v < h.NumVertices(); v++ {
			if name := h.VertexName(v); name != "" {
				if id, ok := h.VertexID(name); !ok || id != v {
					t.Fatalf("VertexID(%q) = %d, %v, want %d", name, id, ok, v)
				}
			}
		}
		for f := 0; f < h.NumEdges(); f++ {
			if name := h.EdgeName(f); name != "" {
				if id, ok := h.EdgeID(name); !ok || id != f {
					t.Fatalf("EdgeID(%q) = %d, %v, want %d", name, id, ok, f)
				}
			}
		}
		out := filepath.Join(dir, "out.store")
		if err := store.WriteH(out, h); err != nil {
			t.Fatalf("re-write of opened store: %v", err)
		}
		st2, err := store.Open(out, store.Options{NoMmap: true})
		if err != nil {
			t.Fatalf("re-open of re-written store: %v", err)
		}
		defer st2.Close()
		h2, err := st2.H()
		if err != nil {
			t.Fatalf("hypergraph of re-written store: %v", err)
		}
		if !sameArrays(h2.CSR(), c) {
			t.Fatal("re-written store decodes to different arrays")
		}
		for v := 0; v < h.NumVertices(); v++ {
			if h2.VertexName(v) != h.VertexName(v) {
				t.Fatalf("vertex %d name changed across round trip", v)
			}
		}
		for f := 0; f < h.NumEdges(); f++ {
			if h2.EdgeName(f) != h.EdgeName(f) {
				t.Fatalf("edge %d name changed across round trip", f)
			}
		}
	})
}

// sameArrays compares the four CSR arrays exactly.
func sameArrays(a, b *csr.CSR) bool {
	return slices.Equal(a.VOff, b.VOff) && slices.Equal(a.VAdj, b.VAdj) &&
		slices.Equal(a.EOff, b.EOff) && slices.Equal(a.EAdj, b.EAdj)
}
