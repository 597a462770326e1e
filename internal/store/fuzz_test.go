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
// either be rejected with an error or open into a store whose arrays
// pass csr.Validate, whose hypergraph view finds every name, and which
// survives an exact re-write round trip; no input may panic, hang, or
// allocate past the header-declared sizes.
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
		c := st.CSR()
		// Open validated the structure; a second pass must agree.
		if err := c.Validate(); err != nil {
			t.Fatalf("opened store fails validation: %v", err)
		}
		// The hypergraph view rejects a repeated name or carries every
		// name over, each non-empty one found again at its own ID.
		if h, err := st.H(); err == nil {
			for v := 0; v < h.NumVertices(); v++ {
				name := h.VertexName(v)
				if name != st.VertexName(int32(v)) {
					t.Fatalf("vertex %d named %q in the hypergraph, %q in the store", v, name, st.VertexName(int32(v)))
				}
				if id, ok := h.VertexID(name); name != "" && (!ok || id != v) {
					t.Fatalf("VertexID(%q) = %d, %v, want %d", name, id, ok, v)
				}
			}
			for f := 0; f < h.NumEdges(); f++ {
				name := h.EdgeName(f)
				if name != st.EdgeName(int32(f)) {
					t.Fatalf("hyperedge %d named %q in the hypergraph, %q in the store", f, name, st.EdgeName(int32(f)))
				}
				if id, ok := h.EdgeID(name); name != "" && (!ok || id != f) {
					t.Fatalf("EdgeID(%q) = %d, %v, want %d", name, id, ok, f)
				}
			}
		}
		vNames, eNames := namesOf(st, c)
		out := filepath.Join(dir, "out.store")
		if err := store.Write(out, c, vNames, eNames); err != nil {
			t.Fatalf("re-write of opened store: %v", err)
		}
		st2, err := store.Open(out, store.Options{NoMmap: true})
		if err != nil {
			t.Fatalf("re-open of re-written store: %v", err)
		}
		defer st2.Close()
		if !sameArrays(st2.CSR(), c) {
			t.Fatal("re-written store decodes to different arrays")
		}
		for i := int32(0); i < int32(c.NumVertices()); i++ {
			if st2.VertexName(i) != st.VertexName(i) {
				t.Fatalf("vertex %d name changed across round trip", i)
			}
		}
		for i := int32(0); i < int32(c.NumEdges()); i++ {
			if st2.EdgeName(i) != st.EdgeName(i) {
				t.Fatalf("edge %d name changed across round trip", i)
			}
		}
	})
}

// sameArrays compares the four CSR arrays exactly.
func sameArrays(a, b *csr.CSR) bool {
	return slices.Equal(a.VOff, b.VOff) && slices.Equal(a.VAdj, b.VAdj) &&
		slices.Equal(a.EOff, b.EOff) && slices.Equal(a.EAdj, b.EAdj)
}

// namesOf extracts the name tables of an opened store, or nil for a
// side with no name section (empty names throughout).
func namesOf(st *store.File, c *csr.CSR) (vNames, eNames []string) {
	anyV, anyE := false, false
	for i := int32(0); i < int32(c.NumVertices()); i++ {
		if st.VertexName(i) != "" {
			anyV = true
			break
		}
	}
	for i := int32(0); i < int32(c.NumEdges()); i++ {
		if st.EdgeName(i) != "" {
			anyE = true
			break
		}
	}
	if anyV {
		vNames = make([]string, c.NumVertices())
		for i := range vNames {
			vNames[i] = st.VertexName(int32(i))
		}
	}
	if anyE {
		eNames = make([]string, c.NumEdges())
		for i := range eNames {
			eNames[i] = st.EdgeName(int32(i))
		}
	}
	return vNames, eNames
}
