// Tests for the flat-array substrate: Validate's rejection of
// malformed arrays and the int32 narrowing helper.
package csr_test

import (
	"strings"
	"testing"

	"hyperplex/internal/csr"
)

// TestValidateRejects spot-checks that Validate catches hand-broken
// arrays: unsorted rows, dangling pins and bad offsets, among them
// interior offsets past the pins or stepping backwards, which must be
// reported before any row is sliced.
func TestValidateRejects(t *testing.T) {
	// base is the hypergraph {0, 1}, {1, 2} over three vertices.
	base := func() *csr.CSR {
		return &csr.CSR{
			VOff: []int32{0, 1, 3, 4},
			VAdj: []int32{0, 0, 1, 1},
			EOff: []int32{0, 2, 4},
			EAdj: []int32{0, 1, 1, 2},
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
		{"decreasing edge offset", func(c *csr.CSR) { c.EOff = []int32{0, 2, 1, 4} }},
		{"unsorted member row", func(c *csr.CSR) { c.EAdj[0], c.EAdj[1] = c.EAdj[1], c.EAdj[0] }},
		{"out-of-range member", func(c *csr.CSR) { c.EAdj[0] = 99 }},
		{"inconsistent directions", func(c *csr.CSR) { c.VAdj[0] = 1 }},
	}
	for _, b := range breaks {
		c := base()
		b.wreck(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the wreck", b.name)
		}
	}
	if err := base().Validate(); err != nil {
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
