// Package core implements the k-core algorithms of Ramadan, Tarafdar
// and Pothen (IPPS 2004): the classical linear-time k-core of a graph,
// and the paper's k-core of a hypergraph.
//
// The k-core of a graph G is a maximal subgraph in which every vertex
// has degree at least k.  The k-core of a hypergraph H is a maximal
// sub-hypergraph that is *reduced* (no hyperedge contained in another)
// and in which every vertex belongs to at least k hyperedges.  When a
// vertex is peeled, a hyperedge it belonged to is deleted as soon as it
// stops being maximal — including the special case of becoming empty.
//
// The paper detects non-maximal hyperedges by maintaining pairwise
// overlap counts (|f ∩ g|): a hyperedge f is contained in g precisely
// when its current degree equals its current overlap with g.  That
// algorithm is kept as the reference in internal/check
// (check.OverlapDecompose, check.OverlapCore).  The peelers here test
// containment instead with the witness-filter detector csr.Detector,
// once per round for every hyperedge that shrank.
//
// The implementations:
//
//   - Decompose / KCore / MaxCore / BiCore: one sequential peeler, the
//     bucket-queue kernel csr.Decompose, with every core read off its
//     decomposition.  KCore and BiCore stop the peel at level k, as
//     the paper's algorithm does; BiCore adds a minimum hyperedge
//     size l.
//   - KCoreNaive: a fixpoint reference that re-scans for containment
//     each round; used by tests and the maximality ablation benchmark.
//   - DistPeeler and ShardedDecompose: the bulk-synchronous (BSP)
//     decomposition over vertex-block shards from internal/partition,
//     peeling in synchronized rounds with the dying and retired deltas
//     exchanged at barriers, answering the paper's call ("for large
//     hypergraphs, a parallel algorithm will need to be designed").
//     DistPeeler's phase methods are the one copy of the phases:
//     ShardedDecompose drives a single replica that owns every shard
//     in process, and internal/dist drives one replica per worker over
//     the wire.  Both run the sequential peeler's round schedule and
//     return its decomposition byte for byte.
package core
