package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"hyperplex/internal/csr"
	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/partition"
	"hyperplex/internal/run"
)

// This file is the package's engine layer: a sharded core
// decomposition that peels a partitioned hypergraph (internal/
// partition) in bulk-synchronous rounds.  Each shard owns a vertex
// block and the hyperedges anchored in it; within a phase a shard
// writes only its owned state, and updates crossing a shard boundary
// travel through per-pair outboxes that the owning shard applies after
// an exchange barrier.  Plain arrays therefore suffice — no atomics —
// and every phase reads a snapshot that the barriers keep stable.  The
// rounds are the round schedule of the sequential CSR peeler
// (csr.Decompose), so the engine reaches the same confluent fixpoint
// per level, and with the CSR peeler and DistPeeler it keeps the same
// member of every equal-set family: the three return equal
// decompositions, edge coreness included.  The
// reduction test (empty or non-maximal) is the flat-array containment
// detector of internal/csr (csr.Detector), run by each worker on its
// own stamp scratch against the global alive/degree arrays and the
// static member signatures built at set-up, which the check phases
// only read.
//
// The shard-local peel state lives in the flat-array substrate: each
// shard materializes its block as a csr.CSR (partition.MaterializeCSR)
// plus the complementary remote-incidence rows (partition.RemoteEdges),
// and all of its mutable int32 state — owned degrees, the lazy bucket
// queue, the shrunk stamps, the frontier/shrunk/dying lists and the
// outbox payloads — is carved from one arena per shard.  Instead of
// rescanning every owned vertex per round, the frontier is gathered
// from the bucket queue with the same lazy stale-skipping discipline as
// csr/peel.go: a vertex is re-pushed on every degree decrement and
// entries whose recorded degree went stale are dropped at pop time, so
// the entry arena is bounded by |owned| plus the owned incidence count.
// Exchange payloads are flat int32 ID slices over the shared substrate
// — one entry per degree decrement — so a future distributed engine can
// ship the outboxes as-is.

// fpShardedWorker fires inside every sharded engine worker, so an
// injected panic exercises the worker recovery boundary.
var fpShardedWorker = failpoint.Register("core.sharded.worker")

// fpShardedExchange fires at every exchange barrier, where outbox
// updates become visible to their owning shards.
var fpShardedExchange = failpoint.Register("core.sharded.exchange")

// maxParallelWorkers caps the worker and shard counts: each worker
// owns O(|F|) scratch and the exchange buffers are quadratic in the
// shard count, so an absurd request would turn into an allocation bomb
// rather than more parallelism.
const maxParallelWorkers = 512

// normalizeWorkers applies the documented worker-count policy of the
// parallel engines: ≤ 0 selects runtime.NumCPU(), and requests beyond
// maxParallelWorkers are clamped.
func normalizeWorkers(workers int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > maxParallelWorkers {
		workers = maxParallelWorkers
	}
	return workers
}

// WorkerPanicError reports a panic recovered at a parallel worker
// boundary: the computation is abandoned but the panic surfaces as an
// error instead of crossing goroutines, and no worker is leaked.
type WorkerPanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking worker
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("core: parallel worker panic: %v", e.Value)
}

// ShardedOptions configures the sharded decomposition engine.
type ShardedOptions struct {
	// Shards is the number of vertex blocks: ≤ 0 selects
	// runtime.NumCPU(), and the count is clamped to the vertex count
	// and to the same cap as the worker policy (the engine's exchange
	// buffers are quadratic in the shard count).
	Shards int
	// Workers is the number of goroutines driving the phases, under
	// the normalizeWorkers policy (≤ 0 → runtime.NumCPU(), capped).
	Workers int
}

// normalizeShardCount applies the documented shard policy of
// ShardedOptions.Shards.
func normalizeShardCount(shards, numVertices int) int {
	shards = partition.NormalizeShards(shards, numVertices)
	if shards > maxParallelWorkers {
		shards = maxParallelWorkers
	}
	return shards
}

// ShardedDecompose computes the full core decomposition of h with the
// sharded peeling engine.  It runs the round schedule of the
// sequential peeler, so it equals Decompose byte for byte at every
// shard count, edge coreness included.
func ShardedDecompose(h *hypergraph.Hypergraph, opts ShardedOptions) *Decomposition {
	d, err := ShardedDecomposeCtx(context.Background(), h, opts)
	if err != nil {
		// Only reachable through an armed failpoint: a background
		// context cannot be cancelled and carries no budget.
		panic(err)
	}
	return d
}

// ShardedDecomposeCtx is ShardedDecompose honoring cancellation,
// deadline and any run.Budget attached to ctx, checked inside every
// phase.  A panic in a worker is recovered at the worker boundary and
// returned as a *WorkerPanicError — workers never leak and panics
// never cross goroutines.  On any error it returns (nil, err): the
// half-peeled state is not a valid decomposition.
func ShardedDecomposeCtx(ctx context.Context, h *hypergraph.Hypergraph, opts ShardedOptions) (*Decomposition, error) {
	meter := run.MeterFrom(ctx)
	// Entry checkpoint: an already-cancelled context fails before the
	// partition is built.
	if err := run.Tick(ctx, meter, 0); err != nil {
		return nil, err
	}
	part, err := partition.BuildCtx(ctx, h, normalizeShardCount(opts.Shards, h.NumVertices()))
	if err != nil {
		return nil, err
	}
	e := newShardedEngine(ctx, h, part, normalizeWorkers(opts.Workers))
	return e.decompose()
}

// shardPeel is one shard's peel state, all of it over the flat-array
// substrate: the CSR block of owned∪frontier vertices and owned
// hyperedges, the remote-incidence rows, and a single int32 arena
// carved into the degree array, the lazy bucket queue, the shrunk
// stamps, the frontier/shrunk/dying lists and the per-target outbox
// payloads.  Owned vertices are addressed by their offset j in the
// contiguous owned block: global ID lo+j, block-local ID olo+j.
type shardPeel struct {
	block *csr.CSR // owned∪frontier × owned hyperedges, with ID maps
	lo    int32    // first owned global vertex ID
	n     int32    // owned vertex count
	olo   int32    // block-local ID of the first owned vertex

	deg []int32 // current full degree per owned vertex, indexed by j

	// Lazy bucket queue over the owned vertices: head[d] is the top
	// entry index of the degree-d bucket, next links entries, item
	// holds the owned offset of each entry.  A vertex is re-pushed on
	// every decrement; stale entries are skipped at gather time.
	head, next, item []int32
	nfree            int32
	cur              int // lowest possibly-non-empty bucket

	stamp    []int32 // per owned local hyperedge: last round it shrank
	frontier []int32 // owned offsets gathered below threshold this round
	shrunk   []int32 // local hyperedge IDs shrunk this round
	dying    []int32 // local hyperedge IDs found dead

	// Remote incidence: rAdj[rOff[j]:rOff[j+1]] lists the foreign-owned
	// hyperedges (global IDs) incident to owned vertex j.
	rOff, rAdj []int32

	// outV[t] carries vertex-degree decrements to vertex owner t,
	// outE[t] hyperedge-degree decrements to edge owner t, both as
	// flat global ID payloads (one entry per decrement).  Capacities
	// are exact: every cut pin and every remote incidence fires at
	// most once over the whole run.
	//hyperplexvet:outbox
	outV, outE [][]int32

	aliveV int
}

// push records that owned vertex j now has degree d.  Entries are
// never removed eagerly; gathers skip entries whose recorded degree is
// stale.
func (p *shardPeel) push(j int32, d int) {
	idx := p.nfree
	p.nfree++
	p.item[idx] = j
	p.next[idx] = p.head[d]
	p.head[d] = idx
	if d < p.cur {
		p.cur = d
	}
}

// shardedEngine holds the engine state.  The global slices indexed by
// vertex or hyperedge are written only by the owning shard's phase;
// each shardPeel is written only by its own shard (outbox buffers by
// the sending shard, drained by the receiver after a barrier).
type shardedEngine struct {
	c    *csr.CSR // flat view of the full hypergraph
	part *partition.Partition
	//hyperplexvet:ignore ctxfirst scoped to one ShardedDecomposeCtx call; the phase methods all run under it
	ctx     context.Context
	meter   *run.Meter
	workers int
	k       int // current peeling threshold

	vAlive, eAlive []bool
	eDeg           []int32 // global alive hyperedge degrees, 0 once retired
	vCore, eCore   []int

	peels []*shardPeel
	round int32

	snap csr.Snapshot    // the detector's view of c, vAlive and eDeg
	dets []*csr.Detector // containment scratch, one per worker
}

func newShardedEngine(ctx context.Context, h *hypergraph.Hypergraph, part *partition.Partition, workers int) *shardedEngine {
	nv, ne := h.NumVertices(), h.NumEdges()
	ns := part.NumShards()
	e := &shardedEngine{
		c:       csr.FromH(h),
		part:    part,
		ctx:     ctx,
		meter:   run.MeterFrom(ctx),
		workers: workers,
		vAlive:  make([]bool, nv),
		eAlive:  make([]bool, ne),
		eDeg:    make([]int32, ne),
		vCore:   make([]int, nv),
		eCore:   make([]int, ne),
		peels:   make([]*shardPeel, ns),
		dets:    make([]*csr.Detector, workers),
	}
	for v := 0; v < nv; v++ {
		e.vAlive[v] = true
	}
	for f := 0; f < ne; f++ {
		e.eAlive[f] = true
		e.eDeg[f] = int32(h.EdgeDegree(f))
	}
	e.snap = csr.Snapshot{C: e.c, Rows: e.c.EAdj, VAlive: e.vAlive, EDeg: e.eDeg, Sig: csr.Signatures(e.c)}
	for i := range e.dets {
		e.dets[i] = csr.NewDetector(e.c)
	}
	return e
}

// setupShard materializes shard s's peel state: the CSR block, the
// remote-incidence rows, and the arena carved into degrees, bucket
// queue, stamps, work lists and outbox payloads.
//
//hyperplexvet:phase owned
func (e *shardedEngine) setupShard(s, _ int) error {
	sh := &e.part.Shards[s]
	n := csr.MustInt32(len(sh.Vertices))
	if err := run.Tick(e.ctx, e.meter, int64(n)+int64(sh.Pins)+1); err != nil {
		return err
	}
	block := e.part.MaterializeCSR(s)
	rOff, rAdj := e.part.RemoteEdges(s)
	ne := csr.MustInt32(block.NumEdges())
	ns := len(e.peels)

	p := &shardPeel{block: block, n: n, aliveV: int(n)}
	if n > 0 {
		p.lo = sh.Vertices[0]
		olo, _ := slices.BinarySearch(block.VertexID, p.lo)
		p.olo = int32(olo)
	}

	// Exact arena accounting.  ownedInc bounds the bucket entries (one
	// initial push per owned vertex plus one per degree decrement, at
	// most one per incidence); the outbox capacities count the cut pins
	// and remote incidences per target, each of which sends at most one
	// decrement over the whole run.
	maxDeg := int32(0)
	ownedInc := int32(0)
	for j := int32(0); j < n; j++ {
		d := e.c.VertexDegree(p.lo + j)
		if d > maxDeg {
			maxDeg = d
		}
		ownedInc += d
	}
	vcnt := make([]int32, ns)
	for _, w := range block.EAdj {
		if j := w - p.olo; j < 0 || j >= n {
			vcnt[e.part.VertexOwner[block.VertexID[w]]]++
		}
	}
	ecnt := make([]int32, ns)
	for _, g := range rAdj {
		ecnt[e.part.EdgeOwner[g]]++
	}
	vout, eout := int32(0), csr.MustInt32(len(rAdj))
	for _, c := range vcnt {
		vout += c
	}

	entries := n + ownedInc
	arena := make([]int32, n+(maxDeg+1)+2*entries+3*ne+n+vout+eout)
	carve := func(sz int32) []int32 {
		s := arena[:sz:sz]
		arena = arena[sz:]
		return s
	}
	p.deg = carve(n)
	p.head = carve(maxDeg + 1)
	p.next = carve(entries)
	p.item = carve(entries)
	p.stamp = carve(ne)
	p.frontier = carve(n)[:0]
	p.shrunk = carve(ne)[:0]
	p.dying = carve(ne)[:0]
	p.outV = make([][]int32, ns)
	p.outE = make([][]int32, ns)
	for t := 0; t < ns; t++ {
		p.outV[t] = carve(vcnt[t])[:0]
		p.outE[t] = carve(ecnt[t])[:0]
	}
	p.rOff, p.rAdj = rOff, rAdj

	for i := range p.head {
		p.head[i] = -1
	}
	for i := range p.stamp {
		p.stamp[i] = -1
	}
	for j := int32(0); j < n; j++ {
		p.deg[j] = e.c.VertexDegree(p.lo + j)
		p.push(j, int(p.deg[j]))
	}
	e.peels[s] = p
	return nil
}

// forEachShard runs fn(s, worker) over every shard, split across the
// engine's workers.  A worker panic is recovered at the goroutine
// boundary (first one wins) and returned as a *WorkerPanicError; fn's
// own error return aborts likewise.
func (e *shardedEngine) forEachShard(fn func(s, worker int) error) error {
	ns := e.part.NumShards()
	w := e.workers
	if w > ns {
		w = ns
	}
	var panicErr atomic.Pointer[WorkerPanicError]
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	chunk := (ns + w - 1) / w
	//hyperplexvet:ignore budgettick bounded spawn loop: at most workers iterations of O(1) setup; every phase fn ticks at entry
	for i := 0; i < w; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > ns {
			hi = ns
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi, worker int) {
			defer wg.Done()
			defer func() {
				if x := recover(); x != nil {
					stack := make([]byte, 16<<10)
					stack = stack[:runtime.Stack(stack, false)]
					panicErr.CompareAndSwap(nil, &WorkerPanicError{Value: x, Stack: stack})
				}
			}()
			if err := failpoint.Inject(fpShardedWorker); err != nil {
				firstErr.CompareAndSwap(nil, &err)
				return
			}
			//hyperplexvet:ignore budgettick every phase fn begins with a run.Tick sized to its shard's work
			for s := lo; s < hi; s++ {
				if err := fn(s, worker); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}(lo, hi, i)
	}
	wg.Wait()
	if pe := panicErr.Load(); pe != nil {
		return pe
	}
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// exchange is the barrier at which outbox updates become visible to
// their owning shards; the failpoint makes the hand-off injectable.
func (e *shardedEngine) exchange() error {
	if err := failpoint.Inject(fpShardedExchange); err != nil {
		return fmt.Errorf("core: sharded exchange: %w", err)
	}
	return nil
}

// clampCore is the shared coreness assignment: state retired while
// peeling toward threshold k belonged to the (k-1)-core.
func (e *shardedEngine) clampCore() int {
	if e.k < 1 {
		return 0
	}
	return e.k - 1
}

// applyDying retires shard s's dying hyperedges — zeroing their
// degrees, so the detector's degree filter skips them — and decrements
// the degrees of their alive members: owned directly (re-pushing them
// at their new bucket), foreign through the vertex outboxes.
//
//hyperplexvet:phase owned
//hyperplexvet:hotpath
func (e *shardedEngine) applyDying(s, _ int) error {
	p := e.peels[s]
	if err := run.Tick(e.ctx, e.meter, int64(len(p.dying))+1); err != nil {
		return err
	}
	for _, fi := range p.dying {
		g := p.block.EdgeID[fi]
		e.eAlive[g] = false
		e.eDeg[g] = 0
		e.eCore[g] = e.clampCore()
		for _, w := range p.block.EdgeVertices(fi) {
			if j := w - p.olo; j >= 0 && j < p.n {
				if e.vAlive[p.lo+j] {
					p.deg[j]--
					p.push(j, int(p.deg[j]))
				}
			} else {
				vg := p.block.VertexID[w]
				if e.vAlive[vg] {
					t := e.part.VertexOwner[vg]
					p.outV[t] = append(p.outV[t], vg)
				}
			}
		}
	}
	return nil
}

// drainAndGather applies shard s's vertex inbox, then gathers its
// frontier from the bucket queue: every bucket below the threshold is
// drained, keeping the entries whose recorded degree is still current
// (each alive owned vertex below the threshold has exactly one such
// entry, pushed by its last decrement).
//
//hyperplexvet:phase drain
//hyperplexvet:hotpath
func (e *shardedEngine) drainAndGather(s, _ int) error {
	p := e.peels[s]
	inbox := 0
	for src := range e.peels {
		buf := e.peels[src].outV[s]
		inbox += len(buf)
		for _, vg := range buf {
			j := vg - p.lo
			p.deg[j]--
			p.push(j, int(p.deg[j]))
		}
		e.peels[src].outV[s] = buf[:0]
	}
	p.frontier = p.frontier[:0]
	pops := 0
	top := e.k
	if top > len(p.head) {
		top = len(p.head)
	}
	for d := p.cur; d < top; d++ {
		for idx := p.head[d]; idx != -1; idx = p.next[idx] {
			pops++
			j := p.item[idx]
			if e.vAlive[p.lo+j] && int(p.deg[j]) == d {
				p.frontier = append(p.frontier, j)
			}
		}
		p.head[d] = -1
	}
	if p.cur < top {
		p.cur = top
	}
	return run.Tick(e.ctx, e.meter, int64(inbox+pops)+1)
}

// retireAndShrink retires shard s's frontier vertices and shrinks
// their alive hyperedges — owned through the block rows (recording
// first-shrink stamps for the re-check), foreign through the remote
// rows into the hyperedge outboxes.
//
//hyperplexvet:phase owned
//hyperplexvet:hotpath
func (e *shardedEngine) retireAndShrink(s, _ int) error {
	p := e.peels[s]
	if err := run.Tick(e.ctx, e.meter, int64(len(p.frontier))+1); err != nil {
		return err
	}
	p.shrunk = p.shrunk[:0]
	for _, j := range p.frontier {
		vg := p.lo + j
		e.vAlive[vg] = false
		e.vCore[vg] = e.clampCore()
		p.aliveV--
		for _, fi := range p.block.VertexEdges(p.olo + j) {
			g := p.block.EdgeID[fi]
			if !e.eAlive[g] {
				continue
			}
			e.eDeg[g]--
			if p.stamp[fi] != e.round {
				p.stamp[fi] = e.round
				p.shrunk = append(p.shrunk, fi)
			}
		}
		for _, g := range p.rAdj[p.rOff[j]:p.rOff[j+1]] {
			if e.eAlive[g] {
				t := e.part.EdgeOwner[g]
				p.outE[t] = append(p.outE[t], g)
			}
		}
	}
	return nil
}

// drainEdges applies shard s's hyperedge inbox.  It runs as its own
// phase: the re-check that follows reads the degrees of other shards'
// hyperedges, so every inbox must be fully applied — barrier between —
// before any shard starts checking.
//
//hyperplexvet:phase drain
//hyperplexvet:hotpath
func (e *shardedEngine) drainEdges(s, _ int) error {
	p := e.peels[s]
	n := 0
	for src := range e.peels {
		n += len(e.peels[src].outE[s])
	}
	if err := run.Tick(e.ctx, e.meter, int64(n)+1); err != nil {
		return err
	}
	for src := range e.peels {
		buf := e.peels[src].outE[s]
		for _, g := range buf {
			e.eDeg[g]--
			fi, _ := slices.BinarySearch(p.block.EdgeID, g)
			if p.stamp[fi] != e.round {
				p.stamp[fi] = e.round
				p.shrunk = append(p.shrunk, int32(fi))
			}
		}
		e.peels[src].outE[s] = buf[:0]
	}
	return nil
}

// checkShrunk re-checks every owned hyperedge that shrank this round
// for emptiness or non-maximality, refilling the shard's dying list.
//
//hyperplexvet:phase owned
//hyperplexvet:hotpath
func (e *shardedEngine) checkShrunk(s, worker int) error {
	p := e.peels[s]
	if err := run.Tick(e.ctx, e.meter, int64(len(p.shrunk))+1); err != nil {
		return err
	}
	det := e.dets[worker]
	p.dying = p.dying[:0]
	for _, fi := range p.shrunk {
		if e.checkDead(det, p.block.EdgeID[fi]) {
			p.dying = append(p.dying, fi)
		}
	}
	return nil
}

// checkInitial is round 0's reduction: every owned hyperedge is
// checked, so empty and initially non-maximal hyperedges die at
// coreness 0.
//
//hyperplexvet:phase owned
//hyperplexvet:hotpath
func (e *shardedEngine) checkInitial(s, worker int) error {
	p := e.peels[s]
	ne := csr.MustInt32(p.block.NumEdges())
	if err := run.Tick(e.ctx, e.meter, int64(ne)+1); err != nil {
		return err
	}
	det := e.dets[worker]
	p.dying = p.dying[:0]
	for fi := int32(0); fi < ne; fi++ {
		if e.checkDead(det, p.block.EdgeID[fi]) {
			p.dying = append(p.dying, fi)
		}
	}
	return nil
}

// checkDead reports whether alive hyperedge g (global ID) is empty or
// non-maximal against the current stable global snapshot.
//
//hyperplexvet:hotpath
func (e *shardedEngine) checkDead(det *csr.Detector, g int32) bool {
	dead, _ := det.Dead(&e.snap, g)
	return dead
}

// decompose runs the level loop: like Decompose, it raises the
// threshold one level at a time, carrying all peeling state across
// levels, but peels each level in bulk-synchronous rounds.
func (e *shardedEngine) decompose() (*Decomposition, error) {
	if err := e.forEachShard(e.setupShard); err != nil {
		return nil, err
	}
	// Round 0: the initial reduction checks every hyperedge.
	if err := e.forEachShard(e.checkInitial); err != nil {
		return nil, err
	}

	aliveV := 0
	for _, p := range e.peels {
		aliveV += p.aliveV
	}
	maxK := 0
	for k := 1; aliveV > 0; k++ {
		e.k = k
		for {
			dyingTotal := 0
			for _, p := range e.peels {
				dyingTotal += len(p.dying)
			}
			if err := e.forEachShard(e.applyDying); err != nil {
				return nil, err
			}
			if err := e.exchange(); err != nil {
				return nil, err
			}
			if err := e.forEachShard(e.drainAndGather); err != nil {
				return nil, err
			}
			frontierTotal := 0
			for _, p := range e.peels {
				frontierTotal += len(p.frontier)
			}
			if frontierTotal == 0 && dyingTotal == 0 {
				break // level fixpoint: every alive vertex has degree ≥ k
			}
			e.round++
			if err := e.forEachShard(e.retireAndShrink); err != nil {
				return nil, err
			}
			if err := e.exchange(); err != nil {
				return nil, err
			}
			if err := e.forEachShard(e.drainEdges); err != nil {
				return nil, err
			}
			if err := e.forEachShard(e.checkShrunk); err != nil {
				return nil, err
			}
		}
		aliveV = 0
		for _, p := range e.peels {
			aliveV += p.aliveV
		}
		if aliveV > 0 {
			maxK = k
		}
	}
	return &Decomposition{
		VertexCoreness: e.vCore,
		EdgeCoreness:   e.eCore,
		MaxK:           maxK,
	}, nil
}
