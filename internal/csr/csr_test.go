// Tests for the flat-array substrate: the round-trip property of the
// conversion layer (ToH ∘ FromH preserves the incidence structure
// exactly) and Validate's rejection of malformed arrays.  External
// test package so the sweep in internal/check (which imports core,
// which imports this package) is usable.
package csr_test

import (
	"strings"
	"testing"

	"hyperplex/internal/check"
	"hyperplex/internal/csr"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

// roundtripInstances is the conversion-layer test mix: the crafted
// corner cases the satellite calls out (empty edges, isolated
// vertices, duplicate equal-set edges), the deterministic sweep, and a
// few random instances.
func roundtripInstances(t *testing.T) []*hypergraph.Hypergraph {
	t.Helper()
	crafted := []struct {
		nv    int
		edges [][]int32
	}{
		{0, nil},                         // empty hypergraph
		{5, nil},                         // isolated vertices only
		{3, [][]int32{{}, {0, 1}, {}}},   // empty edges between real ones
		{4, [][]int32{{0, 1}, {0, 1}}},   // duplicate equal-set edges
		{2, [][]int32{{0}, {1}, {0, 1}}}, // singletons + spanning edge
	}
	var out []*hypergraph.Hypergraph
	for _, c := range crafted {
		h, err := hypergraph.FromEdgeSets(c.nv, c.edges)
		if err != nil {
			t.Fatalf("crafted instance: %v", err)
		}
		out = append(out, h)
	}
	out = append(out, check.Instances(30, 0xC5A0)...)
	rng := xrand.New(0xC5A1)
	for i := 0; i < 8; i++ {
		out = append(out, gen.RandomHypergraph(3+rng.Intn(50), 1+rng.Intn(40), 1+rng.Intn(7), rng))
	}
	return out
}

// TestFromHValidates pins that every converted instance is a valid CSR
// with the same counts, degrees and pin rows as its source.
func TestFromHValidates(t *testing.T) {
	for i, h := range roundtripInstances(t) {
		c := csr.FromH(h)
		if err := c.Validate(); err != nil {
			t.Fatalf("instance %d %v: %v", i, h, err)
		}
		if c.NumVertices() != h.NumVertices() || c.NumEdges() != h.NumEdges() || c.NumPins() != h.NumPins() {
			t.Fatalf("instance %d %v: CSR is %d/%d/%d, want %d/%d/%d", i, h,
				c.NumVertices(), c.NumEdges(), c.NumPins(),
				h.NumVertices(), h.NumEdges(), h.NumPins())
		}
		for v := 0; v < h.NumVertices(); v++ {
			if int(c.VertexDegree(int32(v))) != h.VertexDegree(v) {
				t.Fatalf("instance %d %v: vertex %d degree %d, want %d", i, h, v, c.VertexDegree(int32(v)), h.VertexDegree(v))
			}
		}
		for f := 0; f < h.NumEdges(); f++ {
			row := c.EdgeVertices(int32(f))
			want := h.Vertices(f)
			if len(row) != len(want) {
				t.Fatalf("instance %d %v: edge %d has %d members, want %d", i, h, f, len(row), len(want))
			}
			for j := range row {
				if row[j] != want[j] {
					t.Fatalf("instance %d %v: edge %d member %d = %d, want %d", i, h, f, j, row[j], want[j])
				}
			}
		}
	}
}

// TestRoundTrip pins ToH(FromH(h)) ≅ h: identical vertex and edge
// counts, pin count, degree sequences, and per-edge member sets.  IDs
// are preserved exactly (FromH is the identity embedding and ToH emits
// edges in local order), so the comparison is positional, which is
// stronger than isomorphism.
func TestRoundTrip(t *testing.T) {
	for i, h := range roundtripInstances(t) {
		c := csr.FromH(h)
		h2, err := c.ToH()
		if err != nil {
			t.Fatalf("instance %d %v: ToH: %v", i, h, err)
		}
		if err := h2.Validate(); err != nil {
			t.Fatalf("instance %d %v: round-tripped hypergraph invalid: %v", i, h, err)
		}
		if h2.NumVertices() != h.NumVertices() || h2.NumEdges() != h.NumEdges() || h2.NumPins() != h.NumPins() {
			t.Fatalf("instance %d %v: round-trip is %v", i, h, h2)
		}
		for v := 0; v < h.NumVertices(); v++ {
			if h2.VertexDegree(v) != h.VertexDegree(v) {
				t.Fatalf("instance %d %v: round-trip vertex %d degree %d, want %d", i, h, v, h2.VertexDegree(v), h.VertexDegree(v))
			}
		}
		for f := 0; f < h.NumEdges(); f++ {
			got, want := h2.Vertices(f), h.Vertices(f)
			if len(got) != len(want) {
				t.Fatalf("instance %d %v: round-trip edge %d has %d members, want %d", i, h, f, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("instance %d %v: round-trip edge %d member set drifted", i, h, f)
				}
			}
		}
		// A second conversion of the round-tripped hypergraph must give
		// byte-identical arrays.
		c2 := csr.FromH(h2)
		for j, x := range c.VOff {
			if c2.VOff[j] != x {
				t.Fatalf("instance %d %v: VOff drifted at %d", i, h, j)
			}
		}
		for j, x := range c.EAdj {
			if c2.EAdj[j] != x {
				t.Fatalf("instance %d %v: EAdj drifted at %d", i, h, j)
			}
		}
	}
}

// TestValidateRejects spot-checks that Validate catches hand-broken
// arrays: unsorted rows, dangling pins, bad offsets, bad ID maps.
func TestValidateRejects(t *testing.T) {
	base := func(t *testing.T) *csr.CSR {
		h, err := hypergraph.FromEdgeSets(3, [][]int32{{0, 1}, {1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		c := csr.FromH(h)
		// Deep-copy so mutations cannot touch h's aliased storage.
		return &csr.CSR{
			VOff: append([]int32(nil), c.VOff...),
			VAdj: append([]int32(nil), c.VAdj...),
			EOff: append([]int32(nil), c.EOff...),
			EAdj: append([]int32(nil), c.EAdj...),
		}
	}
	breaks := []struct {
		name  string
		wreck func(c *csr.CSR)
	}{
		{"offset not starting at 0", func(c *csr.CSR) { c.EOff[0] = 1 }},
		{"offset overshooting pins", func(c *csr.CSR) { c.EOff[len(c.EOff)-1]++ }},
		{"negative cardinality", func(c *csr.CSR) { c.EOff[1] = 3; c.EOff[0] = 0 }},
		{"interior vertex offset past the pins", func(c *csr.CSR) { c.VOff[1] = 100 }},
		{"interior edge offset past the pins", func(c *csr.CSR) { c.EOff[1] = 100 }},
		{"unsorted member row", func(c *csr.CSR) { c.EAdj[0], c.EAdj[1] = c.EAdj[1], c.EAdj[0] }},
		{"out-of-range member", func(c *csr.CSR) { c.EAdj[0] = 99 }},
		{"inconsistent directions", func(c *csr.CSR) { c.VAdj[0] = 1 }},
		{"ID map wrong length", func(c *csr.CSR) { c.VertexID = []int32{0} }},
		{"ID map not ascending", func(c *csr.CSR) { c.EdgeID = []int32{1, 0} }},
	}
	for _, b := range breaks {
		c := base(t)
		b.wreck(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the wreck", b.name)
		}
	}
	if err := base(t).Validate(); err != nil {
		t.Fatalf("unwrecked base must validate: %v", err)
	}
}

// TestMustInt32 pins the loud-failure contract of the index-space
// narrowing helper: in-range sizes pass through exactly, while a
// negative or too-large size panics with a message naming the overflow
// instead of silently truncating into a corrupt index array.
func TestMustInt32(t *testing.T) {
	for _, ok := range []int{0, 1, 4096, 1<<31 - 1} {
		if got := csr.MustInt32(ok); int(got) != ok {
			t.Errorf("MustInt32(%d) = %d, want pass-through", ok, got)
		}
	}
	for _, bad := range []int{-1, 1 << 31, 1<<31 + 7} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("MustInt32(%d) did not panic", bad)
					return
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "overflows the int32 index space") {
					t.Errorf("MustInt32(%d) panic = %v, want an index-space overflow message", bad, r)
				}
			}()
			csr.MustInt32(bad)
		}()
	}
}
