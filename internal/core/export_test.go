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

// DecomposeL is the sequential peel of the decomposition whose level k
// is the (k, l)-core, capped at level kmax: the call KCore, BiCore and
// BiCoreDecomposeL read their answers off.
func DecomposeL(ctx context.Context, h *hypergraph.Hypergraph, l, kmax int) (*Decomposition, error) {
	return decompose(ctx, h, 1, l, kmax)
}

// RoundOracle is check.RoundDecompose, set by oracle_test.go, so the
// in-package replica tests can hold their runs to it.
var RoundOracle func(h *hypergraph.Hypergraph, l int) *Decomposition

// Clone deep-copies the snapshot.
func (sn *ShardSnapshot) Clone() *ShardSnapshot {
	return &ShardSnapshot{
		Shard:  sn.Shard,
		AliveV: sn.AliveV,
		Deg:    append([]int32(nil), sn.Deg...),
		Dying:  append([]int32(nil), sn.Dying...),
	}
}

// Owned returns the ascending indices of the shards assigned here.
func (w *DistPeeler) Owned() []int {
	var out []int
	for s, p := range w.shards {
		if p != nil {
			out = append(out, s)
		}
	}
	return out
}
