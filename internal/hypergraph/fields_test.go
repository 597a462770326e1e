package hypergraph

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hyperplex/internal/csr"
)

// FuzzFields pins the shared tokenizer to the standard library: on any
// bytes it returns exactly the fields bytes.Fields returns, also when
// it reuses a slice left over from another line.
func FuzzFields(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("1 2 3.5"))
	f.Add([]byte("  lead and trail  "))
	f.Add([]byte("nb\u00a0sp nel\u0085x ls\u2028x ideo\u3000x"))
	f.Add([]byte("\v\f\r\t x \v\f\r"))
	f.Add([]byte("bad\xffutf8 \xe3\x80 cut\xe3\x80\x80space"))
	f.Add([]byte("\u2003"))
	f.Fuzz(func(t *testing.T, line []byte) {
		want := bytes.Fields(line)
		check := func(label string, got [][]byte) {
			t.Helper()
			if !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("%s Fields(%q) = %q, bytes.Fields = %q", label, line, got, want)
			}
		}
		check("fresh", Fields(nil, line))
		check("reused", Fields([][]byte{[]byte("stale"), nil, []byte("x")}, line))
	})
}

// unicodeText is the text-format input of asciiText with every
// separator replaced by Unicode white space that strings.TrimSpace and
// strings.Fields also accept.
const (
	asciiText   = "# comment\nc1: a b c\n  c2 :  b c\nvertex z\nc3: c\td\n"
	unicodeText = "\u3000# comment\u0085\nc1:\u00a0a\u2003b\u3000c\n\u0085c2\u2028: b\u00a0c\u0085\n vertex \u3000z\u2003\nc3: c\u2028d\n"
)

// TestReadTextUnicodeSeparators requires Unicode-separated text to
// parse to exactly the hypergraph of its ASCII-separated equivalent.
func TestReadTextUnicodeSeparators(t *testing.T) {
	want, err := ReadText(strings.NewReader(asciiText))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(strings.NewReader(unicodeText))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Unicode-separated input parsed to %v %q, want %v %q", got, got.vNames.s, want, want.vNames.s)
	}
}

// TestScanTextAllocs pins the scanner's allocations with nil callbacks:
// a file costs a fixed number of allocations however many lines it
// has.
func TestScanTextAllocs(t *testing.T) {
	allocs := func(lines int) float64 {
		var b strings.Builder
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&b, "e%d: p%d p%d p%d\n", i, i, i+1, i+2)
		}
		data := []byte(b.String())
		return testing.AllocsPerRun(5, func() {
			if err := ScanTextCtx(context.Background(), bytes.NewReader(data), TextEvents{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(20000)
	if large > small {
		t.Fatalf("ScanTextCtx allocations grow with the line count: %v for 1000 lines, %v for 20000", small, large)
	}
}

// TestBuilderReuseAfterBuild pins Build's copy: a builder that goes on
// adding after Build must not change the hypergraph it already built.
func TestBuilderReuseAfterBuild(t *testing.T) {
	b := NewBuilder()
	b.AddEdge("c1", "a", "b", "c")
	b.AddEdge("c2", "c", "d")
	h1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	before := h1.Clone()
	b.AddEdge("c3", "d", "a", "e")
	h2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h1, before) {
		t.Fatalf("Build after AddEdge changed the first hypergraph: %v, want %v", h1, before)
	}
	if h2.NumEdges() != 3 || h2.NumVertices() != 5 || h2.NumPins() != 8 {
		t.Fatalf("second Build = %v, want |V|=5 |F|=3 |E|=8", h2)
	}
}

// TestAddEdgeIDsPanicsBeforeChange pins the precondition panic: an
// out-of-range member leaves the builder as it was.
func TestAddEdgeIDsPanicsBeforeChange(t *testing.T) {
	b := NewBuilder()
	b.AddEdge("c1", "a", "b")
	want := b.MustBuild()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AddEdgeIDs accepted an out-of-range member")
			}
		}()
		b.AddEdgeIDs("bad", []int32{1, 0, 7})
	}()
	if got := b.MustBuild(); !reflect.DeepEqual(got, want) {
		t.Fatalf("builder changed by a rejected AddEdgeIDs: %v, want %v", got, want)
	}
}

// TestValidateRejectsBadOffsets wraps, through FromCSR, offset arrays
// whose interior entries point past the pins or step backwards: FromCSR
// trusts them and must not panic, and validating the hypergraph's own
// arrays must report an error, not panic slicing a row.
func TestValidateRejectsBadOffsets(t *testing.T) {
	cases := []struct {
		name                   string
		vOff, vAdj, eOff, eAdj []int32
	}{
		{"interior vertex offset", []int32{0, 100, 2}, []int32{0, 0}, []int32{0, 2}, []int32{0, 1}},
		{"interior edge offset", []int32{0, 1, 2}, []int32{0, 1}, []int32{0, 100, 2}, []int32{0, 1}},
		{"decreasing edge offset", []int32{0, 1, 2}, []int32{0, 1}, []int32{0, 2, 1, 2}, []int32{0, 1}},
	}
	for _, tc := range cases {
		h, err := FromCSR(&csr.CSR{VOff: tc.vOff, VAdj: tc.vAdj, EOff: tc.eOff, EAdj: tc.eAdj}, nil, nil, nil, nil)
		if err != nil {
			t.Fatalf("%s: FromCSR: %v", tc.name, err)
		}
		if err := h.CSR().Validate(); err == nil {
			t.Errorf("%s: Validate accepted the arrays", tc.name)
		}
	}
}
