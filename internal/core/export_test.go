package core

import (
	"context"

	"hyperplex/internal/hypergraph"
)

// Exports for the external test package (package core_test), which
// holds the tests that need internal/check: check imports core, so
// the in-package tests cannot import it; and helpers only the tests
// call.

// RandomHypergraph is the property tests' small random instance.
var RandomHypergraph = randomHypergraph

// PlantedHypergraph is the instance with a known 3-core.
var PlantedHypergraph = plantedHypergraph

// DecomposeL is the sequential peel of the decomposition whose level k
// is the (k, l)-core, capped at level kmax: the call KCore and BiCore
// read their answers off.
func DecomposeL(ctx context.Context, h *hypergraph.Hypergraph, l, kmax int) (*Decomposition, error) {
	return decompose(ctx, h, 1, l, kmax)
}

// RoundOracle is check.RoundDecompose, set by oracle_test.go, so the
// in-package replica tests can hold their runs to it.
var RoundOracle func(h *hypergraph.Hypergraph, l int) *Decomposition
