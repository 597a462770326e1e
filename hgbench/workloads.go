package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"hyperplex/internal/cli"
	"hyperplex/internal/core"
	"hyperplex/internal/cover"
	"hyperplex/internal/dataset"
	"hyperplex/internal/dist"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/partition"
	"hyperplex/internal/stats"
	"hyperplex/internal/store"
	"hyperplex/internal/xrand"
)

// sizes fixes the scale of the generated inputs.
type sizes struct {
	proteins, complexes int // baits: dataset.SyntheticProteome shape
	rows                int // matrix, shards, dist: banded rows×rows matrix
	inputs              int // seed-derived instances per run
}

// fullSize is the benchmark's scale: a human-proteome-sized proteome
// (about 44k pins), the scale the paper's conclusion calls for, and the
// banded 8000×8000 instance (about 136k pins) of Table 1's shape.
var fullSize = sizes{proteins: 20000, complexes: 3000, rows: 8000, inputs: 6}

func bandedSpec(rows int, seed uint64) gen.MatrixSpec {
	return gen.MatrixSpec{Name: "banded", Rows: rows, Cols: rows, Band: 10, BandFill: 0.7, RandomPerRow: 2, Seed: seed}
}

// The engines run with 2 shards and 2 workers on every machine.
var shardedOpts = core.ShardedOptions{Shards: 2, Workers: 2}

// answer is a job's result reduced to the values checked against the
// reference, plus the counts a traced run reports.
type answer struct {
	maxK            int
	coreVertices    int
	coreEdges       int
	inCore          []bool // baits: vertices of the maximum core
	coreness        []int  // decompositions: vertex coreness
	components      int
	largestVertices int
	coverSize       int
	coverWeight     float64
	barriers        int // dist: committed BSP barriers
}

// check compares a job's answer with its reference.  Edge coreness and
// core hyperedge counts are not compared: engines may keep different
// copies of equal-set hyperedges.
func check(got, want answer) error {
	switch {
	case got.maxK != want.maxK:
		return fmt.Errorf("maximum core %d, want %d", got.maxK, want.maxK)
	case !slices.Equal(got.inCore, want.inCore):
		return fmt.Errorf("maximum-core vertices differ from the reference")
	case !slices.Equal(got.coreness, want.coreness):
		return fmt.Errorf("vertex coreness differs from the reference")
	case got.components != want.components || got.largestVertices != want.largestVertices:
		return fmt.Errorf("components %d (largest %d), want %d (largest %d)",
			got.components, got.largestVertices, want.components, want.largestVertices)
	case got.coverSize != want.coverSize || math.Abs(got.coverWeight-want.coverWeight) > 1e-9*math.Max(1, want.coverWeight):
		return fmt.Errorf("cover of %d vertices, weight %v; want %d, weight %v",
			got.coverSize, got.coverWeight, want.coverSize, want.coverWeight)
	}
	return nil
}

// input is one generated instance: the file a job opens, its pin count
// and its reference answer.
type input struct {
	path string
	pins int
	ref  answer
}

// workload is one single-shape job and the generator of its inputs.
type workload struct {
	// prepare writes one seed-derived instance into dir and computes
	// its reference answer with an engine other than the job's.
	prepare func(ctx context.Context, tr *tracer, dir string, sz sizes, seed uint64) (input, error)
	// job does what the CLI's default route does, from opening path
	// to the answer's last byte written to w.
	job func(ctx context.Context, tr *tracer, path string, w io.Writer) (answer, error)
	// probe, if set, runs after each traced job, off the job's path.
	probe func(ctx context.Context, tr *tracer, path string) error
}

var workloads = map[string]workload{
	"baits":  {prepare: prepareBaits, job: baitsJob},
	"matrix": {prepare: prepareMatrix, job: matrixJob},
	"shards": {prepare: prepareStore, job: shardsJob, probe: partitionProbe},
	"dist":   {prepare: prepareStore, job: distJob, probe: partitionProbe},
}

// setUp checks the paper anchor, then writes the run's inputs under
// dir and computes their reference answers.
func setUp(ctx context.Context, wl workload, tr *tracer, dir string, sz sizes, seed uint64) ([]input, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := anchor(ctx, dir); err != nil {
		return nil, err
	}
	rng := xrand.New(seed)
	inputs := make([]input, sz.inputs)
	for i := range inputs {
		in, err := wl.prepare(ctx, tr, dir, sz, rng.Uint64())
		if err != nil {
			return nil, fmt.Errorf("set-up input %d: %w", i, err)
		}
		inputs[i] = in
	}
	return inputs, nil
}

// anchor runs the baits job on the calibrated Cellzome instance and
// fails unless it reports the paper's maximum core: the 6-core of 41
// proteins and 54 complexes.
func anchor(ctx context.Context, dir string) error {
	path := filepath.Join(dir, "cellzome.txt")
	h := dataset.Cellzome().H
	if err := writeFile(path, func(w io.Writer) error { return hypergraph.WriteText(w, h) }); err != nil {
		return err
	}
	got, err := baitsJob(ctx, newTracer(false), path, io.Discard)
	if err != nil {
		return fmt.Errorf("cellzome anchor: %w", err)
	}
	want := dataset.PublishedCellzome()
	if got.maxK != want.MaxCoreK || got.coreVertices != want.MaxCoreProteins || got.coreEdges != want.MaxCoreComplexes {
		return fmt.Errorf("cellzome anchor: %d-core with %d proteins and %d complexes, want %d-core with %d and %d",
			got.maxK, got.coreVertices, got.coreEdges, want.MaxCoreK, want.MaxCoreProteins, want.MaxCoreComplexes)
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// skipSmall is hgcover's -skip-singletons: a hyperedge smaller than its
// requirement is dropped from it.  It returns the number dropped.
func skipSmall(h *hypergraph.Hypergraph, req []int) int {
	n := 0
	for f := range req {
		if h.EdgeDegree(f) < req[f] {
			req[f] = 0
			n++
		}
	}
	return n
}

func prepareBaits(ctx context.Context, _ *tracer, dir string, sz sizes, seed uint64) (input, error) {
	gh := dataset.SyntheticProteome(sz.proteins, sz.complexes, seed)
	path := filepath.Join(dir, fmt.Sprintf("proteome-%016x.txt", seed))
	if err := writeFile(path, func(w io.Writer) error { return hypergraph.WriteText(w, gh) }); err != nil {
		return input{}, err
	}
	// The text format numbers vertices in order of appearance, so the
	// reference is computed on the hypergraph as the job reads it.
	h, err := cli.ReadHypergraphCtx(ctx, false, path, nil)
	if err != nil {
		return input{}, err
	}
	// The reference uses the sharded peel, union-find components and
	// the map-based greedy multicover.
	d, err := core.ShardedDecomposeCtx(ctx, h, shardedOpts)
	if err != nil {
		return input{}, err
	}
	ref := answer{maxK: d.MaxK, inCore: make([]bool, h.NumVertices())}
	for v, k := range d.VertexCoreness {
		if k >= d.MaxK {
			ref.inCore[v] = true
			ref.coreVertices++
		}
	}
	_, _, comps := stats.ComponentsUF(h)
	ref.components = len(comps)
	if len(comps) > 0 {
		ref.largestVertices = comps[0].Vertices
	}
	req := cover.UniformRequirement(h, 2)
	skipSmall(h, req)
	c, err := cover.GreedyMulticoverCtx(ctx, h, cover.DegreeSquaredWeights(h), req)
	if err != nil {
		return input{}, err
	}
	ref.coverSize, ref.coverWeight = c.Size(), c.Weight
	return input{path: path, pins: h.NumPins(), ref: ref}, nil
}

// baitsJob is hgstats, hgcore -max and hgcover -weights degree2 -r 2
// -skip-singletons over one read of a text file.
func baitsJob(ctx context.Context, tr *tracer, path string, w io.Writer) (answer, error) {
	s := tr.begin(spanRead)
	h, err := cli.ReadHypergraphCtx(ctx, false, path, nil)
	tr.end(s)
	if err != nil {
		return answer{}, err
	}

	s = tr.begin(spanCensus)
	_, _, comps := stats.Components(h)
	fit, fitErr := stats.FitPowerLaw(stats.DegreeHistogram(h.VertexDegrees()))
	maxD2 := h.MaxDegree2Edge()
	tr.end(s)

	s = tr.begin(spanDecompose)
	r, err := maxCore(ctx, h)
	tr.end(s)
	if err != nil {
		return answer{}, err
	}

	s = tr.begin(spanCover)
	req := cover.UniformRequirement(h, 2)
	skipped := skipSmall(h, req)
	c, err := cover.CSRGreedyMulticoverCtx(ctx, h, cover.DegreeSquaredWeights(h), req)
	tr.end(s)
	if err != nil {
		return answer{}, err
	}
	s = tr.begin(spanVerify)
	err = cover.Verify(h, c, req)
	tr.end(s)
	if err != nil {
		return answer{}, fmt.Errorf("cover fails verification: %w", err)
	}

	s = tr.begin(spanOutput)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "|V| = %d   |F| = %d   |E| = %d\n", h.NumVertices(), h.NumEdges(), h.NumPins())
	fmt.Fprintf(bw, "ΔV = %d   ΔF = %d   Δ2,F = %d\n", h.MaxVertexDegree(), h.MaxEdgeDegree(), maxD2)
	fmt.Fprintf(bw, "components: %d", len(comps))
	if len(comps) > 0 {
		fmt.Fprintf(bw, " (largest: %d vertices, %d hyperedges)", comps[0].Vertices, comps[0].Edges)
	}
	fmt.Fprintln(bw)
	if fitErr == nil {
		fmt.Fprintf(bw, "vertex degree distribution: %v\n", fit)
	} else {
		fmt.Fprintf(bw, "vertex degree distribution: %v\n", fitErr)
	}
	fmt.Fprintf(bw, "%d-core: %d vertices, %d hyperedges\n", r.K, r.NumVertices, r.NumEdges)
	for v, in := range r.VertexIn {
		if in {
			fmt.Fprintf(bw, "vertex %s\n", cli.VertexLabel(h, v))
		}
	}
	for f, in := range r.EdgeIn {
		if in {
			fmt.Fprintf(bw, "hyperedge %s\n", cli.EdgeLabel(h, f))
		}
	}
	fmt.Fprintf(bw, "cover: %d vertices, weight %.2f, average degree %.2f", c.Size(), c.Weight, c.AverageDegree(h))
	if skipped > 0 {
		fmt.Fprintf(bw, " (%d hyperedges skipped)", skipped)
	}
	fmt.Fprintln(bw)
	for _, v := range c.Vertices {
		fmt.Fprintln(bw, cli.VertexLabel(h, v))
	}
	err = bw.Flush()
	tr.end(s)

	a := answer{
		maxK: r.K, coreVertices: r.NumVertices, coreEdges: r.NumEdges, inCore: r.VertexIn,
		components: len(comps), coverSize: c.Size(), coverWeight: c.Weight,
	}
	if len(comps) > 0 {
		a.largestVertices = comps[0].Vertices
	}
	return a, err
}

// maxCore is hgcore's default route: the top core of the CSR
// decomposition, or the 0-core peeled directly when no 1-core exists.
func maxCore(ctx context.Context, h *hypergraph.Hypergraph) (*core.Result, error) {
	d, err := core.CSRDecomposeCtx(ctx, h)
	if err != nil {
		return nil, err
	}
	if d.MaxK == 0 {
		return core.KCoreCtx(ctx, h, 0)
	}
	return d.Core(d.MaxK), nil
}

func prepareMatrix(ctx context.Context, _ *tracer, dir string, sz sizes, seed uint64) (input, error) {
	m := gen.SyntheticMatrix(bandedSpec(sz.rows, seed))
	path := filepath.Join(dir, fmt.Sprintf("banded-%016x.mtx", seed))
	if err := writeFile(path, func(w io.Writer) error { return mmio.Write(w, m) }); err != nil {
		return input{}, err
	}
	h, err := mmio.ToHypergraph(m)
	if err != nil {
		return input{}, err
	}
	// The job peels with the CSR kernel; the reference with the
	// sharded engine.
	d, err := core.ShardedDecomposeCtx(ctx, h, shardedOpts)
	if err != nil {
		return input{}, err
	}
	return input{path: path, pins: h.NumPins(), ref: answer{maxK: d.MaxK, coreness: d.VertexCoreness}}, nil
}

// matrixJob is hgcore -decompose -mtx.  It makes the calls
// cli.ReadHypergraphCtx makes for Matrix Market input, so the parse and
// the conversion are timed apart.
func matrixJob(ctx context.Context, tr *tracer, path string, w io.Writer) (answer, error) {
	s := tr.begin(spanMMIORead)
	m, err := readMatrix(ctx, path)
	tr.end(s)
	if err != nil {
		return answer{}, err
	}
	s = tr.begin(spanMMIOToH)
	h, err := mmio.ToHypergraph(m)
	tr.end(s)
	if err != nil {
		return answer{}, err
	}
	s = tr.begin(spanDecompose)
	d, err := core.CSRDecomposeCtx(ctx, h)
	tr.end(s)
	if err != nil {
		return answer{}, err
	}
	return writeDecomposition(tr, w, h, d)
}

func readMatrix(ctx context.Context, path string) (*mmio.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mmio.ReadCtx(ctx, f)
}

// writeDecomposition prints what hgcore -decompose prints.
func writeDecomposition(tr *tracer, w io.Writer, h *hypergraph.Hypergraph, d *core.Decomposition) (answer, error) {
	s := tr.begin(spanOutput)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "maximum core: %d\n", d.MaxK)
	for _, lvl := range d.Profile() {
		fmt.Fprintf(bw, "  %d-core: %d vertices, %d hyperedges\n", lvl.K, lvl.Vertices, lvl.Edges)
	}
	for v := 0; v < h.NumVertices(); v++ {
		fmt.Fprintf(bw, "%s\t%d\n", cli.VertexLabel(h, v), d.VertexCoreness[v])
	}
	err := bw.Flush()
	tr.end(s)
	return answer{maxK: d.MaxK, coreness: d.VertexCoreness}, err
}

// prepareStore writes the matrix workload's instance and converts it
// with the streaming store builder (hgconvert -to store).  The jobs
// peel with the sharded or distributed engine; the reference with the
// CSR kernel.
func prepareStore(ctx context.Context, tr *tracer, dir string, sz sizes, seed uint64) (input, error) {
	m := gen.SyntheticMatrix(bandedSpec(sz.rows, seed))
	mtxPath := filepath.Join(dir, fmt.Sprintf("banded-%016x.mtx", seed))
	if err := writeFile(mtxPath, func(w io.Writer) error { return mmio.Write(w, m) }); err != nil {
		return input{}, err
	}
	path := filepath.Join(dir, fmt.Sprintf("banded-%016x.store", seed))
	s := tr.begin(spanBuild)
	err := store.BuildFileCtx(ctx, path, store.FileSource("mtx", mtxPath))
	tr.end(s)
	if err != nil {
		return input{}, err
	}
	h, err := mmio.ToHypergraph(m)
	if err != nil {
		return input{}, err
	}
	d, err := core.CSRDecomposeCtx(ctx, h)
	if err != nil {
		return input{}, err
	}
	return input{path: path, pins: h.NumPins(), ref: answer{maxK: d.MaxK, coreness: d.VertexCoreness}}, nil
}

// shardsJob is hgcore -decompose -shards 2 -store.
func shardsJob(ctx context.Context, tr *tracer, path string, w io.Writer) (answer, error) {
	return storeJob(ctx, tr, path, w, spanSharded, func(h *hypergraph.Hypergraph) (*core.Decomposition, error) {
		return core.ShardedDecomposeCtx(ctx, h, shardedOpts)
	})
}

// distJob is hgcore -decompose -dist 2 -shards 2 -store with in-process
// workers: the coordinator and both workers talk over loopback TCP.
func distJob(ctx context.Context, tr *tracer, path string, w io.Writer) (answer, error) {
	barriers := 0
	opts := dist.Options{Workers: 2, Shards: 2, OnBarrier: func(int32, int32, func(int)) { barriers++ }}
	a, err := storeJob(ctx, tr, path, w, spanDist, func(h *hypergraph.Hypergraph) (*core.Decomposition, error) {
		return dist.DecomposeCtx(ctx, h, opts)
	})
	a.barriers = barriers
	return a, err
}

// storeJob opens a store, decomposes its hypergraph with engine inside
// the layer span, prints the decomposition and closes the store.
func storeJob(ctx context.Context, tr *tracer, path string, w io.Writer, layer string,
	engine func(*hypergraph.Hypergraph) (*core.Decomposition, error)) (answer, error) {
	s := tr.begin(spanOpen)
	st, h, err := cli.OpenStoreCtx(ctx, path)
	tr.end(s)
	if err != nil {
		return answer{}, err
	}
	s = tr.begin(layer)
	d, err := engine(h)
	tr.end(s)
	var a answer
	if err == nil {
		a, err = writeDecomposition(tr, w, h, d)
	}
	s = tr.begin(spanClose)
	cerr := st.Close()
	tr.end(s)
	if err == nil {
		err = cerr
	}
	return a, err
}

// partitionProbe times the partition build the sharded engines start
// with, on the job's input but outside the job.
func partitionProbe(ctx context.Context, tr *tracer, path string) error {
	st, h, err := cli.OpenStoreCtx(ctx, path)
	if err != nil {
		return err
	}
	defer st.Close()
	s := tr.begin(spanPartition)
	_, err = partition.BuildCtx(ctx, h, shardedOpts.Shards)
	tr.end(s)
	return err
}
