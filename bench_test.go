// Benchmarks regenerating every table and figure of the paper (see
// DESIGN.md §4 for the experiment index) plus the ablations of §5.
// Run with:
//
//	go test -bench=. -benchmem
package hyperplex_test

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"hyperplex/internal/bio"
	"hyperplex/internal/core"
	"hyperplex/internal/cover"
	"hyperplex/internal/csr"
	"hyperplex/internal/dataset"
	"hyperplex/internal/gen"
	"hyperplex/internal/graph"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/pajek"
	"hyperplex/internal/stats"
	"hyperplex/internal/store"
	"hyperplex/internal/xrand"
)

var (
	czOnce sync.Once
	czInst *dataset.Instance
)

func cellzome(b *testing.B) *dataset.Instance {
	b.Helper()
	czOnce.Do(func() { czInst = dataset.Cellzome() })
	return czInst
}

// BenchmarkFig1PowerLaw regenerates Fig. 1: the protein degree
// histogram and its log-log least-squares fit.
func BenchmarkFig1PowerLaw(b *testing.B) {
	h := cellzome(b).H
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hist := stats.DegreeHistogram(h.VertexDegrees())
		if _, err := stats.FitPowerLaw(hist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2GraphCore regenerates Fig. 2: the core decomposition of
// the illustrative graph.
func BenchmarkFig2GraphCore(b *testing.B) {
	g := graph.MustBuild(7, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{3, 4}, {4, 5}, {0, 6},
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.GraphCoreness(g)
	}
}

// BenchmarkFig3PajekExport regenerates Fig. 3: the Pajek drawing of
// the hypergraph with its maximum core highlighted.
func BenchmarkFig3PajekExport(b *testing.B) {
	inst := cellzome(b)
	mc := core.MaxCore(inst.H)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := pajek.WriteNet(io.Discard, inst.H, mc.VertexIn, mc.EdgeIn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Cellzome regenerates the Cellzome row of Table 1: the
// maximum-core computation the paper timed at 0.47 s on a 2 GHz Xeon.
func BenchmarkTable1Cellzome(b *testing.B) {
	h := cellzome(b).H
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.MaxCore(h)
	}
}

// BenchmarkTable1Matrix regenerates the Matrix Market rows of Table 1
// (shrunken scales in -short mode so `go test -bench` stays quick).
func BenchmarkTable1Matrix(b *testing.B) {
	for _, spec := range gen.Table1Specs(true) {
		m := gen.SyntheticMatrix(spec)
		h, err := mmio.ToHypergraph(m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.MaxCore(h)
			}
		})
	}
}

// BenchmarkSec2SmallWorld regenerates the §2 small-world statistics
// (exact all-pairs BFS).
func BenchmarkSec2SmallWorld(b *testing.B) {
	h := cellzome(b).H
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stats.SmallWorldStats(h, runtime.NumCPU())
	}
}

// BenchmarkSec2Components regenerates the component census of §2.
func BenchmarkSec2Components(b *testing.B) {
	h := cellzome(b).H
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stats.Components(h)
	}
}

// BenchmarkSec3HypergraphCore regenerates the §3 core-proteome
// computation (maximum core of the Cellzome hypergraph).
func BenchmarkSec3HypergraphCore(b *testing.B) {
	h := cellzome(b).H
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := core.MaxCore(h)
		if r.K != 6 {
			b.Fatalf("max core k = %d", r.K)
		}
	}
}

// BenchmarkSec3DIPCores regenerates the §3 DIP graph-core results.
func BenchmarkSec3DIPCores(b *testing.B) {
	yeast := dataset.DIPYeast()
	fly := dataset.DIPFly()
	b.Run("yeast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.GraphCoreness(yeast.G)
		}
	})
	b.Run("fly", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.GraphCoreness(fly.G)
		}
	})
}

// BenchmarkSec4Covers regenerates the §4.2 covers.
func BenchmarkSec4Covers(b *testing.B) {
	inst := cellzome(b)
	h := inst.H
	b.Run("greedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cover.Greedy(h, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("degree2weighted", func(b *testing.B) {
		w := cover.DegreeSquaredWeights(h)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cover.Greedy(h, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multicover", func(b *testing.B) {
		w := cover.DegreeSquaredWeights(h)
		req := cover.UniformRequirement(h, 2)
		for _, f := range inst.Singletons {
			req[f] = 0
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cover.GreedyMulticover(h, w, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtTAPReliability regenerates experiment X1: one simulated
// TAP screen over the reported baits.
func BenchmarkExtTAPReliability(b *testing.B) {
	inst := cellzome(b)
	rng := xrand.New(1)
	p := bio.DefaultTAPParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bio.SimulateTAP(inst.H, inst.BaitsReported, p, rng)
	}
}

// BenchmarkExtPrimalDual regenerates experiment X2.
func BenchmarkExtPrimalDual(b *testing.B) {
	h := cellzome(b).H
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cover.PrimalDual(h, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtParallelCore regenerates experiment X3: sequential vs
// round-synchronous parallel peeling on a banded hypergraph.
func BenchmarkExtParallelCore(b *testing.B) {
	spec := gen.MatrixSpec{Name: "bench", Rows: 8000, Cols: 8000, Band: 10, BandFill: 0.7, RandomPerRow: 2, Seed: 0xBE}
	m := gen.SyntheticMatrix(spec)
	h, err := mmio.ToHypergraph(m)
	if err != nil {
		b.Fatal(err)
	}
	const k = 8
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.KCore(h, k)
		}
	})
	for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
		b.Run("parallel-"+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.KCoreParallel(h, k, workers)
			}
		})
	}
}

// bandedSpec is the shared 8000×8000 banded instance of the
// decomposition and Matrix Market benchmarks.
var bandedSpec = gen.MatrixSpec{Name: "bench", Rows: 8000, Cols: 8000, Band: 10, BandFill: 0.7, RandomPerRow: 2, Seed: 0xBE}

// bandedBench builds the banded instance's hypergraph.
func bandedBench(b *testing.B) *hypergraph.Hypergraph {
	b.Helper()
	m := gen.SyntheticMatrix(bandedSpec)
	h, err := mmio.ToHypergraph(m)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkReadMatrixMarket measures the Matrix Market reader on the
// banded instance's file: the parse half of the Table 1 route.
func BenchmarkReadMatrixMarket(b *testing.B) {
	var buf bytes.Buffer
	if err := mmio.Write(&buf, gen.SyntheticMatrix(bandedSpec)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mmio.ReadCtx(context.Background(), bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSRDecompose measures the sequential bucket-queue peeler
// (csr.Decompose, which every sequential core route runs) on the
// banded instance (BENCH_PR6.json records the trajectory).
func BenchmarkCSRDecompose(b *testing.B) {
	h := bandedBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := core.CSRDecompose(h); d.MaxK == 0 {
			b.Fatal("degenerate decomposition")
		}
	}
}

// BenchmarkStoreDecompose measures the flat-array decomposition kernel
// over the memory-mapped store backend against the same kernel over
// in-RAM CSR arrays, on the shared banded instance (BENCH_PR10.json
// records the trajectory).  The mmap sub-benchmark pays the page-cache
// walk on first touch; steady-state iterations measure the residency
// cost of running the peel over file-backed arrays.
func BenchmarkStoreDecompose(b *testing.B) {
	h := bandedBench(b)
	b.Run("inram", func(b *testing.B) {
		c := csr.FromH(h)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d := csr.Decompose(c, 1); d.MaxK == 0 {
				b.Fatal("degenerate decomposition")
			}
		}
	})
	b.Run("mmap", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "banded.store")
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
			if d := csr.Decompose(c, 1); d.MaxK == 0 {
				b.Fatal("degenerate decomposition")
			}
		}
	})
}

// BenchmarkShardedDecompose measures the sharded decomposition engine
// against the sequential peeler on a banded hypergraph, across shard
// counts.  The sequential sub-benchmark times the CSR peel, the round
// schedule the sharded engine runs on one core.
func BenchmarkShardedDecompose(b *testing.B) {
	h := bandedBench(b)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Decompose(h)
		}
	})
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run("sharded-"+itoa(shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ShardedDecompose(h, core.ShardedOptions{Shards: shards})
			}
		})
	}
}

// bandedReq builds a demand-2 multicover requirement on h, clamped to
// each hyperedge's degree so the instance stays feasible.
func bandedReq(h *hypergraph.Hypergraph) []int {
	req := make([]int, h.NumEdges())
	for f := range req {
		req[f] = 2
		if d := h.EdgeDegree(f); d < 2 {
			req[f] = d
		}
	}
	return req
}

// BenchmarkGreedyMulticover measures the map-based lazy-heap greedy
// multicover — the semantic reference kernel — on the banded instance.
func BenchmarkGreedyMulticover(b *testing.B) {
	h := bandedBench(b)
	w := cover.DegreeSquaredWeights(h)
	req := bandedReq(h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cover.GreedyMulticover(h, w, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSRGreedyMulticover measures the flat-array greedy
// multicover kernel on the same instance as BenchmarkGreedyMulticover,
// so the two are directly comparable (BENCH_PR7.json records the
// trajectory).
func BenchmarkCSRGreedyMulticover(b *testing.B) {
	h := bandedBench(b)
	w := cover.DegreeSquaredWeights(h)
	req := bandedReq(h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cover.CSRGreedyMulticover(h, w, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtModelCompare regenerates experiment X4: building the
// competing representations.
func BenchmarkExtModelCompare(b *testing.B) {
	h := cellzome(b).H
	b.Run("clique", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.CliqueExpansion(h)
		}
	})
	b.Run("star", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.StarExpansion(h, nil)
		}
	})
	b.Run("intersection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.IntersectionGraph(h)
		}
	})
	b.Run("bipartite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.Bipartite(h)
		}
	})
}

// BenchmarkExtBiCore measures the (k, l)-core extension against the
// plain k-core on the Cellzome instance.
func BenchmarkExtBiCore(b *testing.B) {
	h := cellzome(b).H
	b.Run("kcore-6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.KCore(h, 6)
		}
	})
	b.Run("bicore-6-3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.BiCore(h, 6, 3)
		}
	})
}

// BenchmarkExtExactCover measures the branch-and-bound solver on a
// modest instance where it certifies the greedy result.
func BenchmarkExtExactCover(b *testing.B) {
	h := gen.RandomHypergraph(60, 40, 4, xrand.New(13))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cover.Exact(h, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtShortestPath measures alternating-path extraction.
func BenchmarkExtShortestPath(b *testing.B) {
	h := cellzome(b).H
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := stats.ShortestPath(h, 0, h.NumVertices()-1); ok {
			b.Fatal("satellite should be disconnected from vertex 0")
		}
	}
}

// ---- Ablations (DESIGN.md §5) -------------------------------------------

// BenchmarkAblationComponents compares Components' breadth-first search
// over the incidence rows, which labels like a BFS of B(H) without
// building it, with the union-find implementation.
func BenchmarkAblationComponents(b *testing.B) {
	h := cellzome(b).H
	b.Run("bfs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stats.Components(h)
		}
	})
	b.Run("union-find", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stats.ComponentsUF(h)
		}
	})
}

// BenchmarkAblationMaximality compares the witness-filter maximality
// detection of the CSR peel (core.KCore) against naive pairwise
// containment scans.
func BenchmarkAblationMaximality(b *testing.B) {
	h := gen.RandomHypergraph(600, 400, 8, xrand.New(3))
	b.Run("witness-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.KCore(h, 2)
		}
	})
	b.Run("naive-containment", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.KCoreNaive(h, 2)
		}
	})
}

// greedyRescan is the heap-free greedy cover baseline: every iteration
// rescans all vertices for the minimum cost.
func greedyRescan(h *hypergraph.Hypergraph, weights []float64) *cover.Cover {
	nv, ne := h.NumVertices(), h.NumEdges()
	if weights == nil {
		weights = cover.UnitWeights(h)
	}
	covered := make([]bool, ne)
	uncovered := ne
	c := &cover.Cover{InCover: make([]bool, nv)}
	for uncovered > 0 {
		best, bestCost := -1, 0.0
		for v := 0; v < nv; v++ {
			if c.InCover[v] {
				continue
			}
			g := 0
			for _, f := range h.Edges(v) {
				if !covered[f] {
					g++
				}
			}
			if g == 0 {
				continue
			}
			cost := weights[v] / float64(g)
			if best < 0 || cost < bestCost {
				best, bestCost = v, cost
			}
		}
		if best < 0 {
			break
		}
		c.InCover[best] = true
		c.Vertices = append(c.Vertices, best)
		c.Weight += weights[best]
		for _, f := range h.Edges(best) {
			if !covered[f] {
				covered[f] = true
				uncovered--
			}
		}
	}
	return c
}

// BenchmarkAblationCoverHeap compares the lazy-heap greedy against the
// rescan baseline.
func BenchmarkAblationCoverHeap(b *testing.B) {
	h := gen.RandomHypergraph(4000, 2500, 10, xrand.New(5))
	b.Run("lazy-heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cover.Greedy(h, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rescan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			greedyRescan(h, nil)
		}
	})
}

// BenchmarkAblationStorage compares traversal over the CSR hypergraph
// against the map-of-sets representation.
func BenchmarkAblationStorage(b *testing.B) {
	h := gen.RandomHypergraph(5000, 3000, 12, xrand.New(7))
	m := hypergraph.NewMapHypergraph(h)
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sum := 0
			for v := 0; v < h.NumVertices(); v++ {
				for _, f := range h.Edges(v) {
					sum += h.EdgeDegree(int(f))
				}
			}
			if sum == 0 {
				b.Fatal("no pins")
			}
		}
	})
	b.Run("mapset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sum := 0
			for v := range m.VertexEdges {
				for f := range m.VertexEdges[v] {
					sum += m.EdgeDegree(f)
				}
			}
			if sum == 0 {
				b.Fatal("no pins")
			}
		}
	})
}

// BenchmarkAblationAPSP compares exact all-pairs BFS against sampled
// landmarks for the average path length.
func BenchmarkAblationAPSP(b *testing.B) {
	h := cellzome(b).H
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.SmallWorldStats(h, runtime.NumCPU())
		}
	})
	b.Run("sampled-64", func(b *testing.B) {
		rng := xrand.New(11)
		for i := 0; i < b.N; i++ {
			stats.SmallWorldSampled(h, 64, runtime.NumCPU(), rng)
		}
	})
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}
