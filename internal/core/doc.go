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
// (check.OverlapDecompose, check.OverlapCore).  The peel here tests
// containment instead with the witness-filter detector csr.Detector,
// once per round for every hyperedge that shrank.
//
// There is one peel kernel, the bulk-synchronous (BSP) phases of
// DistPeeler over vertex-block shards from internal/partition: each
// round retires the frontier below the threshold and the hyperedges
// found dead, exchanging the dying and retired deltas at barriers.
// This answers the paper's call ("for large hypergraphs, a parallel
// algorithm will need to be designed").  Its drivers:
//
//   - Decompose / KCore / MaxCore / BiCore: RunRounds over one replica
//     that owns a single shard, with every core read off its
//     decomposition.  KCore and BiCore stop the peel at level k, as
//     the paper's algorithm does; BiCore adds a minimum hyperedge
//     size l.
//   - ShardedDecompose: RunRounds over a replica that owns several
//     shards.
//   - internal/dist: RunRounds over a coordinator that drives one
//     replica per worker process over the wire.
//
// RunRounds is the one round schedule, so every driver returns the
// same decomposition byte for byte, edge coreness included;
// check.RoundDecompose writes that schedule out plainly as the tests'
// reference.
package core
