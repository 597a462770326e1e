// Pinned guard benchmarks for the CI regression gate.  These are the
// only benchmarks cmd/benchguard compares against the committed
// baseline (testdata/baseline.json), so their workloads must stay
// byte-for-byte deterministic: fixed seeds, fixed sizes.  Changing a
// workload requires re-recording the baseline with `-update`.
//
//	go test -run '^$' -bench '^BenchmarkGuard' ./internal/benchguard/ \
//	  | go run ./cmd/benchguard -baseline internal/benchguard/testdata/baseline.json
package benchguard_test

import (
	"path/filepath"
	"sync"
	"testing"

	"hyperplex/internal/core"
	"hyperplex/internal/cover"
	"hyperplex/internal/csr"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/stats"
	"hyperplex/internal/store"
	"hyperplex/internal/xrand"
)

var (
	guardOnce sync.Once
	guardH    *hypergraph.Hypergraph
)

func guardInstance(b *testing.B) *hypergraph.Hypergraph {
	b.Helper()
	guardOnce.Do(func() { guardH = gen.RandomHypergraph(2000, 1500, 8, xrand.New(0x6A12D)) })
	return guardH
}

var calibrateSink uint64

// BenchmarkGuardCalibrate is a pure integer loop that measures raw
// machine speed.  cmd/benchguard scales the other baselines by the
// ratio of this benchmark's current ns/op to its baseline ns/op, so
// the guard ports across hardware.
func BenchmarkGuardCalibrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		x := uint64(0x9E3779B97F4A7C15)
		for j := 0; j < 1_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibrateSink = x
	}
}

// BenchmarkGuardKCore pins the sequential k-core peeler.
func BenchmarkGuardKCore(b *testing.B) {
	h := guardInstance(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := core.KCore(h, 2); r == nil {
			b.Fatal("nil result")
		}
	}
}

// BenchmarkGuardShardedDecompose pins the sharded decomposition
// engine (4 shards) so the round-synchronous peeling path cannot
// silently regress.
func BenchmarkGuardShardedDecompose(b *testing.B) {
	h := guardInstance(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := core.ShardedDecompose(h, core.ShardedOptions{Shards: 4})
		if d == nil || d.MaxK == 0 {
			b.Fatal("degenerate decomposition")
		}
	}
}

// BenchmarkGuardDecompose pins the map-based sequential decomposition,
// the semantic reference the CSR kernel is differentially tested
// against.
func BenchmarkGuardDecompose(b *testing.B) {
	h := guardInstance(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := core.Decompose(h)
		if d == nil || d.MaxK == 0 {
			b.Fatal("degenerate decomposition")
		}
	}
}

// BenchmarkGuardCSRDecompose pins the flat-array bucket-queue kernel so
// the CSR hot path cannot silently regress toward the map-based cost.
func BenchmarkGuardCSRDecompose(b *testing.B) {
	h := guardInstance(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := core.CSRDecompose(h)
		if d == nil || d.MaxK == 0 {
			b.Fatal("degenerate decomposition")
		}
	}
}

// BenchmarkGuardGreedyMulticover pins the lazy-heap greedy cover.
func BenchmarkGuardGreedyMulticover(b *testing.B) {
	h := guardInstance(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cover.GreedyMulticover(h, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuardCSRGreedyMulticover pins the flat-array greedy cover
// kernel so the CSR cover hot path cannot silently regress toward the
// map-based cost.
func BenchmarkGuardCSRGreedyMulticover(b *testing.B) {
	h := guardInstance(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cover.CSRGreedyMulticover(h, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuardStoreDecompose pins the flat-array decomposition
// kernel running over the memory-mapped store backend, so the storage
// seam cannot silently add per-access cost to the peel hot path.  The
// store file is written and mapped outside the timed region; the
// baseline is directly comparable to BenchmarkGuardCSRDecompose (the
// same kernel over in-RAM arrays).
func BenchmarkGuardStoreDecompose(b *testing.B) {
	h := guardInstance(b)
	path := filepath.Join(b.TempDir(), "guard.store")
	if err := store.WriteH(path, h); err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(path, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	c := st.CSR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := csr.Decompose(c, 1)
		if d == nil || d.MaxK == 0 {
			b.Fatal("degenerate decomposition")
		}
	}
}

// BenchmarkGuardShortestPath pins alternating-path BFS extraction.
func BenchmarkGuardShortestPath(b *testing.B) {
	h := guardInstance(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := stats.ShortestPath(h, 0, h.NumVertices()-1); !ok {
			b.Fatal("expected the dense random instance to be connected")
		}
	}
}
