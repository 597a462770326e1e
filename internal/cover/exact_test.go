package cover

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
	"hyperplex/internal/xrand"
)

func TestExactTriangle(t *testing.T) {
	h := triangleH(t)
	c, err := Exact(h, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Weight != 2 || len(c.Vertices) != 2 {
		t.Errorf("exact cover weight %v size %d, want 2, 2", c.Weight, len(c.Vertices))
	}
	if err := Verify(h, c, nil); err != nil {
		t.Error(err)
	}
}

func TestExactWeighted(t *testing.T) {
	// Star where the hub is expensive: optimum is the two leaves.
	b := hypergraph.NewBuilder()
	b.AddEdge("f1", "hub", "a")
	b.AddEdge("f2", "hub", "b")
	h := b.MustBuild()
	w := UnitWeights(h)
	hub, _ := h.VertexID("hub")
	w[hub] = 1.5
	c, err := Exact(h, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Weight-1.5) > 1e-12 || len(c.Vertices) != 1 {
		t.Errorf("weight %v size %d, want hub at 1.5", c.Weight, len(c.Vertices))
	}
	w[hub] = 3
	c, err = Exact(h, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Weight != 2 || c.InCover[hub] {
		t.Errorf("weight %v, hub in cover %v; want leaves at 2", c.Weight, c.InCover[hub])
	}
}

func TestExactEmptyEdge(t *testing.T) {
	h, err := hypergraph.FromEdgeSets(2, [][]int32{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exact(h, nil, 0); err == nil {
		t.Error("Exact accepted an empty hyperedge")
	}
}

func TestExactNodeCap(t *testing.T) {
	// A cap of 1 node cannot prove optimality on a nontrivial instance,
	// and the failure must carry the ErrSearchCapped sentinel so the
	// differential oracles can treat it as inconclusive.
	h := triangleH(t)
	_, err := Exact(h, nil, 1)
	if err == nil {
		t.Fatal("Exact with 1-node cap should fail")
	}
	if !errors.Is(err, ErrSearchCapped) {
		t.Errorf("cap error %v does not wrap ErrSearchCapped", err)
	}
}

// TestExactCtxBudget pins ExactCtx's metering on a random instance
// whose search visits hundreds of nodes: the run charges its greedy
// incumbent's pops and one step per search node, each once, checked
// every greedyCheckEvery nodes.  So a step budget one short of that
// count ends the run with run.ErrBudgetExceeded and no cover; so does
// one that leaves the search a single step, within greedyCheckEvery
// nodes; and a budget of exactly that count returns Exact's cover.
func TestExactCtxBudget(t *testing.T) {
	h := gen.RandomHypergraph(40, 60, 4, xrand.New(7))
	ctx, meter := run.WithBudget(context.Background(), run.Budget{})
	if _, err := CSRGreedyMulticoverCtx(ctx, h, nil, nil); err != nil {
		t.Fatal(err)
	}
	greedy := meter.Steps()
	ctx, meter = run.WithBudget(context.Background(), run.Budget{})
	if _, err := ExactCtx(ctx, h, nil, 0); err != nil {
		t.Fatal(err)
	}
	steps := meter.Steps()
	if steps-greedy < 4*greedyCheckEvery {
		t.Fatalf("the search charged %d steps beyond the incumbent's %d, want a search of at least %d nodes", steps-greedy, greedy, 4*greedyCheckEvery)
	}
	for _, short := range []int64{greedy + 1, steps - 1} {
		ctx, meter := run.WithBudget(context.Background(), run.Budget{MaxSteps: short})
		if c, err := ExactCtx(ctx, h, nil, 0); !errors.Is(err, run.ErrBudgetExceeded) || c != nil {
			t.Errorf("a %d-step budget for a %d-step run: cover %v, err %v; want no cover and ErrBudgetExceeded", short, steps, c, err)
		}
		if used := meter.Steps(); used > short+greedyCheckEvery {
			t.Errorf("a %d-step budget: the search stopped after %d steps, want within %d nodes of the budget", short, used, greedyCheckEvery)
		}
	}
	want, err := Exact(h, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ = run.WithBudget(context.Background(), run.Budget{MaxSteps: steps})
	if got, err := ExactCtx(ctx, h, nil, 0); err != nil || !slices.Equal(got.Vertices, want.Vertices) {
		t.Errorf("a budget of the run's %d steps: err %v, or a cover other than Exact's", steps, err)
	}
}

func TestPropertyExactMatchesBruteForce(t *testing.T) {
	prop := func(seed uint64) bool {
		h, w := randomCoverInstance(seed)
		if h.NumVertices() > 14 {
			return true
		}
		c, err := Exact(h, w, 0)
		if err != nil {
			return false
		}
		if Verify(h, c, nil) != nil {
			return false
		}
		opt := optimalCoverWeight(h, w, nil)
		return math.Abs(c.Weight-opt) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyGreedyWithinHarmonicOfExact(t *testing.T) {
	prop := func(seed uint64) bool {
		h, w := randomCoverInstance(seed)
		g, err := GreedyMulticover(h, w, nil)
		if err != nil {
			return false
		}
		e, err := Exact(h, w, 0)
		if err != nil {
			return false
		}
		return g.Weight <= e.Weight*HarmonicBound(h.NumEdges())+1e-9 && e.Weight <= g.Weight+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
