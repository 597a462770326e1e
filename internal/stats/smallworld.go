package stats

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"hyperplex/internal/csr"
	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
)

// fpBFSSource fires before each sweep of the all-pairs kernel, once
// per batch of up to sweepWidth BFS sources.
var fpBFSSource = failpoint.Register("stats.bfs.source")

// sweepWidth is the number of BFS sources one sweep runs: one bit of a
// uint64 mask per source.
const sweepWidth = 64

// SmallWorld summarizes the distance structure of a hypergraph under
// the paper's path metric (path length = number of hyperedges on an
// alternating vertex–hyperedge path; the distance between two vertices
// is the length of a shortest such path).
type SmallWorld struct {
	// Diameter is the maximum finite distance between two vertices.
	Diameter int
	// AvgPathLength is the mean distance over all ordered pairs of
	// distinct vertices in the same component.
	AvgPathLength float64
	// Pairs is the number of (unordered) connected vertex pairs the
	// average is taken over; a partial result counts ordered pairs.
	Pairs int64
	// Sources is the number of BFS sources the summary covers: |V|
	// unless the run was interrupted.
	Sources int
}

// SmallWorldStats computes the exact diameter and average path length
// from a BFS of every vertex, run 64 sources per sweep over the
// incidence arrays, with the sweeps split over `workers` goroutines
// (≤ 0 selects runtime.NumCPU()).  The result does not depend on the
// worker count.
func SmallWorldStats(h *hypergraph.Hypergraph, workers int) SmallWorld {
	sw, err := SmallWorldStatsCtx(context.Background(), h, workers)
	if err != nil {
		panic(err) // only reachable through an armed failpoint
	}
	return sw
}

// SmallWorldStatsCtx is SmallWorldStats honoring cancellation, deadline
// and any run.Budget attached to ctx: one checkpoint per BFS level of a
// sweep, charging the 2·|E| pins the level reads.  On cancellation or
// budget exhaustion the returned SmallWorld summarizes the sweeps
// completed before the interruption, alongside the non-nil error:
// Sources counts their sources, Diameter is a lower bound and Pairs
// counts ordered (source, target) pairs.
func SmallWorldStatsCtx(ctx context.Context, h *hypergraph.Hypergraph, workers int) (SmallWorld, error) {
	hist, sources, err := distanceHistogram(ctx, h, workers)
	sw := SmallWorld{Sources: sources}
	var sum int64
	for d, c := range hist {
		if c > 0 {
			sw.Diameter = d
		}
		sum += int64(d) * c
		sw.Pairs += c
	}
	if sw.Pairs > 0 {
		sw.AvgPathLength = float64(sum) / float64(sw.Pairs)
	}
	if sources == h.NumVertices() {
		sw.Pairs /= 2 // every unordered pair was counted from both ends
	}
	return sw, err
}

// distanceHistogram is the traversal kernel: a BFS from every vertex,
// run as multi-source BFS over h's incidence arrays (MS-BFS; Then et
// al., "The More the Merrier", VLDB 2015), sweepWidth sources per
// sweep.  hist[d] counts the ordered (source, target) pairs at
// distance d ≥ 1 found by the sweeps that completed, and sources
// counts those sweeps' sources.  Workers take sweeps from an atomic
// counter and add integer histograms, so the result is the same at
// every worker count.  A worker panic is recovered at the worker
// boundary and returned as an error; the other workers stop before
// their next sweep.
func distanceHistogram(ctx context.Context, h *hypergraph.Hypergraph, workers int) (hist []int64, sources int, err error) {
	nv := h.NumVertices()
	if nv == 0 {
		return nil, 0, nil
	}
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, 0); err != nil {
		return nil, 0, err
	}
	sweeps := (nv + sweepWidth - 1) / sweepWidth
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, sweeps)

	type acc struct {
		hist    []int64
		sources int // sources of the sweeps this worker completed
	}
	results := make([]acc, workers)
	var wg sync.WaitGroup
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	fail := func(err error) { firstErr.CompareAndSwap(nil, &err) }
	//hyperplexvet:ignore budgettick bounded spawn loop: at most workers iterations of O(1) setup; each worker ticks per BFS level
	for w := range results {
		wg.Add(1)
		go func(a *acc) {
			defer wg.Done()
			defer func() {
				if x := recover(); x != nil {
					fail(fmt.Errorf("stats: BFS worker panic: %v", x))
				}
			}()
			s := newSweep(h.CSR())
			for firstErr.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= sweeps {
					return
				}
				if err := failpoint.Inject(fpBFSSource); err != nil {
					fail(err)
					return
				}
				first := i * sweepWidth
				n := min(sweepWidth, nv-first)
				if err := s.run(ctx, meter, first, n); err != nil {
					fail(err)
					return
				}
				a.hist = addHist(a.hist, s.hist)
				a.sources += n
			}
		}(&results[w])
	}
	wg.Wait()

	//hyperplexvet:ignore budgettick bounded merge of one histogram per worker, each as long as the levels the workers' Ticks charged
	for _, a := range results {
		hist = addHist(hist, a.hist)
		sources += a.sources
	}
	if ep := firstErr.Load(); ep != nil {
		return hist, sources, *ep
	}
	return hist, sources, nil
}

// addHist adds histogram b into a, growing a as needed.
func addHist(a, b []int64) []int64 {
	if len(a) < len(b) {
		a = append(a, make([]int64, len(b)-len(a))...)
	}
	for d, c := range b {
		a[d] += c
	}
	return a
}

// sweep is one worker's state for a multi-source BFS.  Bit i of every
// mask stands for source first+i of the current sweep.
type sweep struct {
	c                    *csr.CSR
	seen, frontier, next []uint64 // per vertex: sources that reached it, at the last level, at this level
	eMask                []uint64 // per hyperedge: sources with a member in the frontier
	hist                 []int64  // the sweep's ordered pairs by distance
}

func newSweep(c *csr.CSR) *sweep {
	nv := c.NumVertices()
	return &sweep{
		c:    c,
		seen: make([]uint64, nv), frontier: make([]uint64, nv), next: make([]uint64, nv),
		eMask: make([]uint64, c.NumEdges()),
	}
}

// run runs the BFS of sources first..first+n-1 (n ≤ sweepWidth) to
// the end and leaves their pairs by distance in s.hist.  Each level
// makes two passes: a hyperedge's mask is the OR of its members'
// frontier masks, and a vertex's next mask is the OR of its
// hyperedges' masks minus the sources that have already seen it.  A
// hyperedge that a source reached at an earlier level holds only
// vertices that source has seen, so it adds nothing, and the
// hyperedges need no seen masks of their own.
func (s *sweep) run(ctx context.Context, meter *run.Meter, first, n int) error {
	c := s.c
	clear(s.seen)
	clear(s.frontier)
	for i := 0; i < n; i++ {
		s.seen[first+i] = 1 << i
		s.frontier[first+i] = 1 << i
	}
	s.hist = append(s.hist[:0], 0)
	pins := 2 * int64(c.NumPins())
	for {
		if err := run.Tick(ctx, meter, pins); err != nil {
			return err
		}
		//hyperplexvet:ignore budgettick bounded pass over EAdj, charged by the Tick above
		for f := range s.eMask {
			var m uint64
			for _, v := range c.EAdj[c.EOff[f]:c.EOff[f+1]] {
				m |= s.frontier[v]
			}
			s.eMask[f] = m
		}
		var reached int64
		//hyperplexvet:ignore budgettick bounded pass over VAdj, charged by the Tick above
		for v := range s.next {
			var m uint64
			for _, f := range c.VAdj[c.VOff[v]:c.VOff[v+1]] {
				m |= s.eMask[f]
			}
			m &^= s.seen[v]
			s.next[v] = m
			s.seen[v] |= m
			reached += int64(bits.OnesCount64(m))
		}
		if reached == 0 {
			return nil
		}
		s.hist = append(s.hist, reached)
		s.frontier, s.next = s.next, s.frontier
	}
}
