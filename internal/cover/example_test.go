package cover_test

import (
	"fmt"

	"hyperplex/internal/cover"
	"hyperplex/internal/hypergraph"
)

// ExampleGreedyMulticover_cover selects bait proteins covering every
// complex once: nil requirements ask for a plain vertex cover.
func ExampleGreedyMulticover_cover() {
	b := hypergraph.NewBuilder()
	b.AddEdge("c1", "hub", "p1")
	b.AddEdge("c2", "hub", "p2")
	b.AddEdge("c3", "hub", "p3")
	h := b.MustBuild()

	c, _ := cover.GreedyMulticover(h, nil, nil)
	fmt.Printf("%d bait covers all %d complexes\n", c.Size(), h.NumEdges())
	// Output:
	// 1 bait covers all 3 complexes
}

// ExampleGreedyMulticover covers each complex twice for reliability.
func ExampleGreedyMulticover() {
	b := hypergraph.NewBuilder()
	b.AddEdge("c1", "a", "b")
	b.AddEdge("c2", "b", "c")
	h := b.MustBuild()

	c, _ := cover.GreedyMulticover(h, nil, cover.UniformRequirement(h, 2))
	fmt.Printf("%d baits give double coverage\n", c.Size())
	// Output:
	// 3 baits give double coverage
}

// ExamplePrimalDual certifies a cover with a dual lower bound.
func ExamplePrimalDual() {
	b := hypergraph.NewBuilder()
	b.AddEdge("c1", "a", "b")
	b.AddEdge("c2", "c", "d")
	h := b.MustBuild()

	r, _ := cover.PrimalDual(h, nil)
	// The primal-dual schema adds every vertex tightened by a raise —
	// here both endpoints of each hyperedge — and certifies the result
	// against the dual lower bound: weight ≤ Δ_F · bound.
	fmt.Printf("cover weight %.0f, lower bound %.0f\n", r.Cover.Weight, r.DualValue)
	// Output:
	// cover weight 4, lower bound 2
}
