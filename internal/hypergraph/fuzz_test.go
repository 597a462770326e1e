// Native fuzz targets for the text and JSON parsers.  An external test
// package so the round-trip checkers in internal/check (which imports
// hypergraph) can serve as the property being fuzzed.
package hypergraph_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"hyperplex/internal/check"
	"hyperplex/internal/core"
	"hyperplex/internal/cover"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
)

// fuzzCorePins caps the size of parsed hypergraphs that get the full
// sequential-vs-sharded decomposition cross-check, so the fuzzer's
// throughput stays dominated by the parser, not the peeler.
const fuzzCorePins = 400

// fuzzCoverPins caps the size of parsed hypergraphs that get the cover
// cross-checks: the greedy map-vs-CSR equality is cheap, but the
// primal–dual certificate runs an exact branch-and-bound search, so the
// cap is tighter than fuzzCorePins.
const fuzzCoverPins = 120

// fuzzCertifyNodes caps the exact search inside the primal–dual
// certificate; a capped search reports inconclusive, not failure.
const fuzzCertifyNodes = 20_000

// FuzzReadText feeds arbitrary bytes to the text parser and, for every
// input it accepts, requires the parsed hypergraph to be structurally
// valid and to survive write→read round trips with a write-stable
// canonical form.  The same bytes are also offered to the JSON parser,
// which must error or produce a valid hypergraph.
func FuzzReadText(f *testing.F) {
	f.Add("e: a b c\ne2: a\nvertex q\n")
	f.Add("x: y\n# comment\nz: y y y\n")
	f.Add("only: one\n")
	f.Add("empty:\n")
	f.Add("odd name: a:b #x\nvertex #y\n")
	f.Add(`{"vertices":["a"],"edges":{"e":["a"]},"edgeOrder":["e"]}`)
	// Long inputs reach the reader's periodic cancellation checkpoint
	// (every 256 lines), not just the entry check.
	f.Add(strings.Repeat("e: a b\n", 300))
	// Partition-hostile shapes for the sharded cross-check below: one
	// giant hyperedge spanning every shard, and duplicate-set edges
	// whose members straddle a shard boundary (the equal-set tie-break
	// must agree across schedules).
	f.Add("giant: a b c d e f g h i j k l m n o p\nleft: a b\nright: o p\n")
	f.Add("d1: h i\nd2: i h\ne1: a b c\ne2: f g h\ne3: c d e\n")
	// CSR-hostile shapes: a max-degree hub vertex (one long vertex→edge
	// adjacency row), a single all-vertices hyperedge (one long
	// edge→vertex row), and singleton edges only (every offset step is
	// exactly one).
	f.Add("h1: hub a\nh2: hub b\nh3: hub c\nh4: hub d\nh5: hub e\nh6: hub f\nh7: hub g\nh8: hub h\n")
	f.Add("all: a b c d e f g h i j\n")
	f.Add("s1: a\ns2: b\ns3: c\ns4: d\ns5: a\n")
	// Cover-hostile shapes: a cycle of equal-gain ties (the two greedy
	// kernels must break every tie identically), and a hub whose first
	// pick collapses the residual gains of everything else.
	f.Add("t1: a b\nt2: b c\nt3: c a\n")
	f.Add("hub1: h a\nhub2: h b\nhub3: h c\nhub4: h d\nlone: x y\n")
	// Unicode separators, which the scanner trims and splits exactly as
	// strings.TrimSpace and strings.Fields do, and invalid UTF-8, which
	// is part of a name.
	f.Add("\u3000e1:\u00a0a\u2003b\u0085\n\u2028vertex \u3000q\u00a0\ne2\u2003: b\u3000c\n")
	f.Add("x\xff: a\xffb \xe3\x80 \xe3\x80\x80c\n")
	// A repeated hyperedge name before a malformed line, which must be
	// the reported fault, and more than 1,024 distinct names, so both
	// name indexes grow several times.
	f.Add("c1: a b\nc1: b c\nc3 a\n")
	var many strings.Builder
	for i := 0; i < 700; i++ {
		fmt.Fprintf(&many, "c%d: p%d p%d\n", i, i, 3*i)
	}
	f.Add(many.String())
	f.Fuzz(func(t *testing.T, data string) {
		// Robustness: a pre-cancelled context surfaces context.Canceled
		// for every input — never a partial parse, never a different
		// error class.
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := hypergraph.ReadTextCtx(cctx, strings.NewReader(data)); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled ReadTextCtx of %q: got %v, want context.Canceled", data, err)
		}
		if h, err := hypergraph.UnmarshalJSONHypergraph([]byte(data)); err == nil {
			if err := h.CSR().Validate(); err != nil {
				t.Fatalf("JSON parser accepted %q but produced invalid hypergraph: %v", data, err)
			}
		}
		h, err := hypergraph.ReadText(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := h.CSR().Validate(); err != nil {
			t.Fatalf("text parser accepted %q but produced invalid hypergraph: %v", data, err)
		}
		if err := check.RoundTripText(h); err != nil {
			t.Fatalf("text round trip of %q: %v", data, err)
		}
		// Every name is found at its own ID.
		for v := 0; v < h.NumVertices(); v++ {
			if id, ok := h.VertexID(h.VertexName(v)); !ok || id != v {
				t.Fatalf("VertexID(VertexName(%d)) of %q = %d, %v", v, data, id, ok)
			}
		}
		for fe := 0; fe < h.NumEdges(); fe++ {
			if name := h.EdgeName(fe); name != "" {
				if id, ok := h.EdgeID(name); !ok || id != fe {
					t.Fatalf("EdgeID(EdgeName(%d)) of %q = %d, %v", fe, data, id, ok)
				}
			}
		}
		// A starved step budget must either reproduce the unbudgeted
		// parse or fail with a clean ErrBudgetExceeded — never return a
		// different hypergraph or another error class.
		bctx, _ := run.WithBudget(context.Background(), run.Budget{MaxSteps: 128})
		switch hb, berr := hypergraph.ReadTextCtx(bctx, strings.NewReader(data)); {
		case berr == nil:
			if hb.NumVertices() != h.NumVertices() || hb.NumEdges() != h.NumEdges() || hb.NumPins() != h.NumPins() {
				t.Fatalf("budgeted ReadTextCtx of %q changed shape: %d/%d/%d to %d/%d/%d", data,
					h.NumVertices(), h.NumEdges(), h.NumPins(), hb.NumVertices(), hb.NumEdges(), hb.NumPins())
			}
		case errors.Is(berr, run.ErrBudgetExceeded):
		default:
			t.Fatalf("budgeted ReadTextCtx of %q: got %v, want success or ErrBudgetExceeded", data, berr)
		}
		// The paper's overlap peel and the sharded and sequential routes
		// are differentially equivalent on every accepted input:
		// identical vertex coreness and identical per-level edge
		// families (the overlap peel may keep another member of an
		// equal-set family, so families are compared against it).  The
		// sequential and sharded routes run the same rounds, so their
		// edge coreness is equal outright.
		if h.NumPins() <= fuzzCorePins {
			want := check.OverlapDecompose(h)
			got := core.ShardedDecompose(h, core.ShardedOptions{Shards: 3})
			if got.MaxK != want.MaxK {
				t.Fatalf("sharded MaxK of %q: got %d, want %d", data, got.MaxK, want.MaxK)
			}
			for v, c := range want.VertexCoreness {
				if got.VertexCoreness[v] != c {
					t.Fatalf("sharded coreness of %q: vertex %d got %d, want %d", data, v, got.VertexCoreness[v], c)
				}
			}
			for k := 1; k <= want.MaxK; k++ {
				if err := check.SameResult(h, got.Core(k), want.Core(k)); err != nil {
					t.Fatalf("sharded %d-core of %q: %v", k, data, err)
				}
			}
			flat := core.Decompose(h)
			if flat.MaxK != want.MaxK {
				t.Fatalf("sequential MaxK of %q: got %d, want %d", data, flat.MaxK, want.MaxK)
			}
			for v, c := range want.VertexCoreness {
				if flat.VertexCoreness[v] != c {
					t.Fatalf("sequential coreness of %q: vertex %d got %d, want %d", data, v, flat.VertexCoreness[v], c)
				}
			}
			for k := 1; k <= want.MaxK; k++ {
				if err := check.SameResult(h, flat.Core(k), want.Core(k)); err != nil {
					t.Fatalf("sequential %d-core of %q: %v", k, data, err)
				}
			}
			if !slices.Equal(flat.EdgeCoreness, got.EdgeCoreness) {
				t.Fatalf("edge coreness of %q: sequential %v, sharded %v", data, flat.EdgeCoreness, got.EdgeCoreness)
			}
		}
		// The cover layer's two greedy kernels are differentially exact:
		// the map kernel and the CSR kernel must select the same vertices
		// in the same order with bitwise-equal weight, and must reject
		// the same inputs with the same error.  Coverable inputs also get
		// the primal–dual certificate, which sandwiches the 2-approx
		// between feasibility and the exact optimum (inconclusive if the
		// capped exact search gives up).
		if h.NumPins() <= fuzzCoverPins && h.NumEdges() > 0 {
			mc, merr := cover.GreedyMulticover(h, nil, nil)
			cc, cerr := cover.CSRGreedy(h, nil)
			switch {
			case (merr == nil) != (cerr == nil):
				t.Fatalf("greedy kernels disagree on %q: map err %v, CSR err %v", data, merr, cerr)
			case merr != nil:
				if merr.Error() != cerr.Error() {
					t.Fatalf("greedy kernel errors differ on %q: map %q, CSR %q", data, merr, cerr)
				}
			default:
				if !slices.Equal(mc.Vertices, cc.Vertices) || mc.Weight != cc.Weight {
					t.Fatalf("greedy kernels diverge on %q: map %v w=%v, CSR %v w=%v",
						data, mc.Vertices, mc.Weight, cc.Vertices, cc.Weight)
				}
				if err := check.ValidCover(h, mc, nil, nil); err != nil {
					t.Fatalf("greedy cover of %q: %v", data, err)
				}
			}
			if merr == nil {
				if err := check.CertifyPrimalDual(h, nil, fuzzCertifyNodes); err != nil {
					t.Fatalf("primal–dual certificate of %q: %v", data, err)
				}
			}
		}
		// JSON keys collapse duplicate edge names and encoding/json
		// replaces invalid UTF-8 with U+FFFD, so the JSON round trip is
		// only promised for unique, valid-UTF-8 names.
		names := make(map[string]bool, h.NumEdges())
		for fe := 0; fe < h.NumEdges(); fe++ {
			name := h.EdgeName(fe)
			if names[name] || !utf8.ValidString(name) {
				return
			}
			names[name] = true
		}
		for v := 0; v < h.NumVertices(); v++ {
			if !utf8.ValidString(h.VertexName(v)) {
				return
			}
		}
		if err := check.RoundTripJSON(h); err != nil {
			t.Fatalf("JSON round trip of %q: %v", data, err)
		}
	})
}

// TestReadTextParsedIsValid pins a few accepted inputs: anything the
// parser accepts must satisfy the structural invariants.
func TestReadTextParsedIsValid(t *testing.T) {
	inputs := []string{
		"e: a b c\ne2: a\nvertex q\n",
		"x: y\n# comment\nz: y y y\n",
		"only: one\n",
	}
	for _, in := range inputs {
		h, err := hypergraph.ReadText(strings.NewReader(in))
		if err != nil {
			t.Errorf("ReadText(%q): %v", in, err)
			continue
		}
		if err := h.CSR().Validate(); err != nil {
			t.Errorf("ReadText(%q) produced invalid hypergraph: %v", in, err)
		}
	}
}
