// Package check is the repository's differential-oracle correctness
// subsystem: definitional reference implementations ("oracles") and
// invariant checkers that the fast algorithm packages are validated
// against in tests.
//
// The paper's headline algorithm — k-core peeling with overlap-count
// maximality detection — is exactly the kind of clever-but-subtle
// optimization that can silently diverge from the definition it
// replaces, and the same risk applies to every future performance PR
// (sharding, batching, caching).  This package therefore provides three
// layers, all independent of the implementations they judge:
//
//   - invariant checkers (ValidCore, ValidBiCore, ValidDecomposition,
//     ValidCover, ValidPrimalDual, ValidPath) that verify a result
//     satisfies the paper's definitions on the original hypergraph;
//   - naive oracles (KCoreOracle, BiCoreOracle, ShortestPathNaive,
//     SmallWorldNaive, MulticoverOptBrute) computed directly from the
//     definitions by fixpoint iteration, breadth-first search, or
//     exhaustive enumeration, the paper's own overlap-count peel
//     (OverlapDecompose, OverlapCore), the reference every peel route
//     is compared with, and RoundDecompose, the production peel's
//     round schedule written out plainly, which pins its edge
//     coreness byte for byte;
//   - a deterministic differential driver (Instances) that generates a
//     reproducible sweep of corner-case and random hypergraphs for the
//     TestDifferential* tests in core, cover, stats, and hypergraph.
//
// check imports the algorithm packages (core, cover, stats, mmio,
// pajek), so those packages' differential tests live in external test
// packages (package foo_test) to keep the import graph acyclic.
//
// Everything here favors clarity over speed: the oracles are meant to
// be obviously correct, not fast, and are sized for the generated sweep
// plus the Cellzome instance.
package check
