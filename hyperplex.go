// Package hyperplex is a library for modeling protein-complex data —
// and any other set-system data — as hypergraphs, reproducing the
// system of Ramadan, Tarafdar and Pothen, "A Hypergraph Model for the
// Yeast Protein Complex Network" (IPPS 2004).
//
// The hypergraph has one vertex per protein and one hyperedge per
// complex.  On top of that model the package offers:
//
//   - k-cores and (k, l)-cores of hypergraphs (and graphs) from one
//     peel that keeps every core reduced: it computes the full core
//     decomposition, or stops at level k as the paper's algorithm
//     does;
//   - minimum-weight vertex covers and multicovers (greedy H_m
//     approximation and a certifying primal-dual algorithm) for bait
//     selection;
//   - network statistics: degree distributions with power-law fits,
//     connected components, small-world metrics under the alternating
//     vertex–hyperedge path metric;
//   - the baseline graph models the paper compares against (clique and
//     star expansions, the complex intersection graph, the bipartite
//     graph B(H));
//   - Matrix Market and Pajek interchange, deterministic synthetic
//     dataset generators, and a TAP pull-down experiment simulator.
//
// This root package is a façade re-exporting the library's public
// surface; the implementation lives in the internal packages and the
// runnable entry points in cmd/ and examples/.
package hyperplex

import (
	"context"
	"io"

	"hyperplex/internal/bio"
	"hyperplex/internal/core"
	"hyperplex/internal/cover"
	"hyperplex/internal/dataset"
	"hyperplex/internal/gen"
	"hyperplex/internal/graph"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/pajek"
	"hyperplex/internal/run"
	"hyperplex/internal/stats"
	"hyperplex/internal/xrand"
)

// ---- Hypergraph model -------------------------------------------------

// Hypergraph is an immutable hypergraph H = (V, F): vertices are
// proteins, hyperedges are complexes.  See internal/hypergraph for the
// full method set (degrees, adjacency, names and labels,
// serialization).
type Hypergraph = hypergraph.Hypergraph

// Builder accumulates vertices and hyperedges and produces an
// immutable Hypergraph.
type Builder = hypergraph.Builder

// NewBuilder returns an empty hypergraph builder.
func NewBuilder() *Builder { return hypergraph.NewBuilder() }

// FromEdgeSets builds a hypergraph over nv vertices from member-ID
// sets.  Both sides stay unnamed: vertices are labeled "v0", "v1", ...
// and hyperedges "f0", "f1", ..., and VertexID and EdgeID find those
// labels.
func FromEdgeSets(nv int, edges [][]int32) (*Hypergraph, error) {
	return hypergraph.FromEdgeSets(nv, edges)
}

// ReadHypergraph parses the native text format ("name: members...",
// one hyperedge per line).
func ReadHypergraph(r io.Reader) (*Hypergraph, error) { return hypergraph.ReadText(r) }

// WriteHypergraph writes the native text format.
func WriteHypergraph(w io.Writer, h *Hypergraph) error { return hypergraph.WriteText(w, h) }

// ---- k-cores ----------------------------------------------------------

// CoreResult is a k-core as membership slices over the original IDs.
type CoreResult = core.Result

// Decomposition is the full core decomposition of a hypergraph.
type Decomposition = core.Decomposition

// KCore computes the k-core of a hypergraph.  It runs the peel of
// Decompose, the bulk-synchronous rounds of the sharded and
// distributed engines over a single shard, and stops it at level k;
// the paper's overlap-count peeling algorithm is the reference it is
// tested against.
func KCore(h *Hypergraph, k int) *CoreResult { return core.KCore(h, k) }

// MaxCore returns the maximum core of a hypergraph.
func MaxCore(h *Hypergraph) *CoreResult { return core.MaxCore(h) }

// Decompose computes the coreness of every vertex and hyperedge.
func Decompose(h *Hypergraph) *Decomposition { return core.Decompose(h) }

// BiCore computes the (k, l)-core: minimum vertex degree k AND minimum
// hyperedge size l, generalizing KCore (= the (k, 1)-core).
func BiCore(h *Hypergraph, k, l int) *CoreResult { return core.BiCore(h, k, l) }

// GraphCoreness computes the coreness of every vertex of a graph in
// O(|V| + |E|).
func GraphCoreness(g *Graph) []int { return core.GraphCoreness(g) }

// GraphKCore returns the k-core membership of a graph.
func GraphKCore(g *Graph, k int) []bool { return core.GraphKCore(g, k) }

// GraphMaxCore returns the maximum core level and membership of a
// graph.
func GraphMaxCore(g *Graph) (int, []bool) { return core.GraphMaxCore(g) }

// ---- Cancellation and budgets -----------------------------------------
//
// Every kernel has a …Ctx variant that honors context cancellation and
// deadlines at bounded checkpoint intervals and charges an optional
// resource budget attached to the context.  The plain variants are
// thin wrappers over context.Background().

// Budget bounds a computation: maximum algorithm steps, maximum bytes
// read/allocated by readers, maximum wall clock.  Zero fields are
// unlimited.
type Budget = run.Budget

// ErrBudgetExceeded is returned (wrapped) by …Ctx APIs when a Budget
// limit is hit.
var ErrBudgetExceeded = run.ErrBudgetExceeded

// WithBudget attaches a budget to a context; the returned meter
// reports how much was consumed when the call returns.
func WithBudget(ctx context.Context, b Budget) (context.Context, *run.Meter) {
	return run.WithBudget(ctx, b)
}

// KCoreCtx is KCore with cancellation and budget checkpoints.
func KCoreCtx(ctx context.Context, h *Hypergraph, k int) (*CoreResult, error) {
	return core.KCoreCtx(ctx, h, k)
}

// MaxCoreCtx is MaxCore with cancellation and budget checkpoints.
func MaxCoreCtx(ctx context.Context, h *Hypergraph) (*CoreResult, error) {
	return core.MaxCoreCtx(ctx, h)
}

// DecomposeCtx is Decompose with cancellation and budget checkpoints.
func DecomposeCtx(ctx context.Context, h *Hypergraph) (*Decomposition, error) {
	return core.DecomposeCtx(ctx, h)
}

// BiCoreCtx is BiCore with cancellation and budget checkpoints.
func BiCoreCtx(ctx context.Context, h *Hypergraph, k, l int) (*CoreResult, error) {
	return core.BiCoreCtx(ctx, h, k, l)
}

// GreedyCoverCtx is GreedyCover with cancellation and budget
// checkpoints.
func GreedyCoverCtx(ctx context.Context, h *Hypergraph, weights []float64) (*Cover, error) {
	return cover.CSRGreedyCtx(ctx, h, weights)
}

// GreedyMulticoverCtx is GreedyMulticover with cancellation and budget
// checkpoints.
func GreedyMulticoverCtx(ctx context.Context, h *Hypergraph, weights []float64, req []int) (*Cover, error) {
	return cover.CSRGreedyMulticoverCtx(ctx, h, weights, req)
}

// SmallWorldStatsCtx is SmallWorldStats with cancellation and budget
// checkpoints.  On error the returned summary covers the BFS sources
// whose sweeps completed, and its diameter is a lower bound.
func SmallWorldStatsCtx(ctx context.Context, h *Hypergraph, workers int) (SmallWorld, error) {
	return stats.SmallWorldStatsCtx(ctx, h, workers)
}

// ReadHypergraphCtx is ReadHypergraph with cancellation and budget
// checkpoints (bytes read charge the budget's alloc limit).
func ReadHypergraphCtx(ctx context.Context, r io.Reader) (*Hypergraph, error) {
	return hypergraph.ReadTextCtx(ctx, r)
}

// ---- Vertex covers ----------------------------------------------------

// Cover is the result of a covering algorithm.
type Cover = cover.Cover

// PrimalDualResult carries a cover plus a dual lower-bound
// certificate.
type PrimalDualResult = cover.PrimalDualResult

// GreedyCover computes an approximate minimum-weight vertex cover
// (Johnson–Chvátal–Lovász greedy, H_m approximation).  weights may be
// nil for minimum cardinality.
func GreedyCover(h *Hypergraph, weights []float64) (*Cover, error) {
	return cover.CSRGreedy(h, weights)
}

// GreedyMulticover covers each hyperedge f at least req[f] times.
func GreedyMulticover(h *Hypergraph, weights []float64, req []int) (*Cover, error) {
	return cover.CSRGreedyMulticover(h, weights, req)
}

// PrimalDualCover runs the certifying primal-dual cover algorithm
// (Δ_F approximation with a per-instance lower bound).
func PrimalDualCover(h *Hypergraph, weights []float64) (*PrimalDualResult, error) {
	return cover.PrimalDual(h, weights)
}

// VerifyCover checks cover feasibility (req may be nil).
func VerifyCover(h *Hypergraph, c *Cover, req []int) error { return cover.Verify(h, c, req) }

// ExactCover computes an optimal minimum-weight cover by
// branch-and-bound (small instances; maxNodes 0 = default cap).
func ExactCover(h *Hypergraph, weights []float64, maxNodes int64) (*Cover, error) {
	return cover.Exact(h, weights, maxNodes)
}

// UnitWeights returns weight 1 for every vertex.
func UnitWeights(h *Hypergraph) []float64 { return cover.UnitWeights(h) }

// DegreeSquaredWeights returns w(v) = d(v)², the paper's weighting for
// low-degree bait selection.
func DegreeSquaredWeights(h *Hypergraph) []float64 { return cover.DegreeSquaredWeights(h) }

// UniformRequirement returns r_f = r for every hyperedge.
func UniformRequirement(h *Hypergraph, r int) []int { return cover.UniformRequirement(h, r) }

// ---- Statistics ---------------------------------------------------------

// PowerLawFit is a log–log least-squares fit of a degree histogram.
type PowerLawFit = stats.PowerLawFit

// ComponentInfo describes one connected component.
type ComponentInfo = stats.ComponentInfo

// SmallWorld holds diameter and average path length under the
// hypergraph path metric.
type SmallWorld = stats.SmallWorld

// StorageCosts compares representation sizes of the competing models.
type StorageCosts = stats.StorageCosts

// DegreeHistogram counts entries per degree.
func DegreeHistogram(degrees []int) []int { return stats.DegreeHistogram(degrees) }

// FitPowerLaw fits P(d) = c·d^−γ to a degree histogram.
func FitPowerLaw(hist []int) (PowerLawFit, error) { return stats.FitPowerLaw(hist) }

// ExponentialFit is a semi-log least-squares fit P(d) = a·e^−λd.
type ExponentialFit = stats.ExponentialFit

// FitExponential fits an exponential to a degree histogram.
func FitExponential(hist []int) (ExponentialFit, error) { return stats.FitExponential(hist) }

// DistributionVerdict reports which distribution family (if either)
// explains a histogram, as §2 does for complex degrees.
type DistributionVerdict = stats.DistributionVerdict

// JudgeDistribution fits both families against an R² threshold.
func JudgeDistribution(hist []int, threshold float64) DistributionVerdict {
	return stats.JudgeDistribution(hist, threshold)
}

// Components labels the connected components of a hypergraph.
func Components(h *Hypergraph) ([]int32, []int32, []ComponentInfo) { return stats.Components(h) }

// SmallWorldStats computes the exact diameter and average path length
// with a parallel all-pairs BFS, 64 sources per sweep.
func SmallWorldStats(h *Hypergraph, workers int) SmallWorld { return stats.SmallWorldStats(h, workers) }

// ComputeStorageCosts measures the §1.2 space argument on h.
func ComputeStorageCosts(h *Hypergraph) StorageCosts { return stats.ComputeStorageCosts(h) }

// ---- Graph models -------------------------------------------------------

// Graph is an immutable simple undirected graph in CSR form.
type Graph = graph.Graph

// BuildGraph constructs a Graph from an edge list.
func BuildGraph(n int, edges [][2]int32) (*Graph, error) { return graph.Build(n, edges) }

// CliqueExpansion replaces each complex by a clique (the lossy PPI
// model the paper criticizes).
func CliqueExpansion(h *Hypergraph) *Graph { return graph.CliqueExpansion(h) }

// StarExpansion replaces each complex by a star rooted at its bait.
func StarExpansion(h *Hypergraph, baitOf []int) *Graph { return graph.StarExpansion(h, baitOf) }

// IntersectionGraph builds the complex intersection graph with overlap
// weights.
func IntersectionGraph(h *Hypergraph) (*Graph, [][2]int32, []int) { return graph.IntersectionGraph(h) }

// Bipartite returns B(H), the bipartite vertex–hyperedge graph.
func Bipartite(h *Hypergraph) *Graph { return graph.Bipartite(h) }

// ---- Interchange ----------------------------------------------------------

// Matrix is a sparse matrix in Matrix Market coordinate form.
type Matrix = mmio.Matrix

// ReadMatrixMarket parses a Matrix Market coordinate file.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return mmio.Read(r) }

// WriteMatrixMarket writes a Matrix Market coordinate file.
func WriteMatrixMarket(w io.Writer, m *Matrix) error { return mmio.Write(w, m) }

// MatrixToHypergraph converts columns to hyperedges over row vertices.
func MatrixToHypergraph(m *Matrix) (*Hypergraph, error) { return mmio.ToHypergraph(m) }

// WritePajekNet exports the bipartite drawing of h (Fig. 3), with
// optional core highlighting.
func WritePajekNet(w io.Writer, h *Hypergraph, coreV, coreF []bool) error {
	return pajek.WriteNet(w, h, coreV, coreF)
}

// WritePajekClu exports the core partition as a Pajek .clu file.
func WritePajekClu(w io.Writer, h *Hypergraph, coreV, coreF []bool) error {
	return pajek.WriteClu(w, h, coreV, coreF)
}

// ---- Proteomics substrate ---------------------------------------------

// AnnotationDB holds per-protein essentiality/homology annotations.
type AnnotationDB = bio.AnnotationDB

// Enrichment compares a protein subset against a background fraction.
type Enrichment = bio.Enrichment

// TAPParams models pull-down reliability; TAPOutcome is one simulated
// screen.
type (
	TAPParams  = bio.TAPParams
	TAPOutcome = bio.TAPOutcome
)

// EnrichmentOf computes subset-vs-background enrichment with a
// binomial p-value.
func EnrichmentOf(subset, hit []bool, background float64, description string) Enrichment {
	return bio.EnrichmentOf(subset, hit, background, description)
}

// SimulateTAP runs one synthetic TAP screen over the given baits.
func SimulateTAP(h *Hypergraph, baits []int, p TAPParams, rng *RNG) *TAPOutcome {
	return bio.SimulateTAP(h, baits, p, rng)
}

// Screen records the pull-downs of one simulated TAP experiment;
// Fidelity measures an observed network against the truth.
type (
	Screen   = bio.Screen
	Fidelity = bio.Fidelity
)

// SimulateScreen runs one TAP screen keeping per-pull-down records.
func SimulateScreen(h *Hypergraph, baits []int, p TAPParams, rng *RNG) *Screen {
	return bio.SimulateScreen(h, baits, p, rng)
}

// ObservedHypergraph merges a screen's pull-downs into the observed
// protein-complex network (the analogue of the published dataset).
func ObservedHypergraph(truth *Hypergraph, s *Screen) *Hypergraph {
	return bio.ObservedHypergraph(truth, s)
}

// NetworkFidelity measures how faithfully an observed network
// reproduces the truth.
func NetworkFidelity(truth, observed *Hypergraph) (Fidelity, error) {
	return bio.NetworkFidelity(truth, observed)
}

// RequirementsForReliability derives per-complex multicover
// requirements from a per-complex recovery target at the given
// pull-down success probability.
func RequirementsForReliability(h *Hypergraph, pullDownSuccess, target float64) ([]int, error) {
	return bio.RequirementsForReliability(h, pullDownSuccess, target)
}

// ExpectedRecovery returns the analytic per-complex recovery
// probabilities for a bait set.
func ExpectedRecovery(h *Hypergraph, baits []int, pullDownSuccess float64) ([]float64, float64) {
	return bio.ExpectedRecovery(h, baits, pullDownSuccess)
}

// HyperPath is an alternating vertex–hyperedge path (§1.3).
type HyperPath = stats.HyperPath

// ShortestPath returns a shortest alternating path between two
// vertices (ok = false if disconnected).
func ShortestPath(h *Hypergraph, from, to int) (HyperPath, bool) {
	return stats.ShortestPath(h, from, to)
}

// ---- Datasets and generators --------------------------------------------

// CellzomeInstance is the calibrated synthetic Cellzome dataset with
// its experiment metadata.
type CellzomeInstance = dataset.Instance

// Cellzome builds the deterministic synthetic yeast protein-complex
// hypergraph calibrated to the paper's published statistics.
func Cellzome() *CellzomeInstance { return dataset.Cellzome() }

// LoadInstance reads an instance previously written with
// CellzomeInstance.Save (hypergraph.txt, baits.txt, annotations.json,
// meta.json in one directory).
func LoadInstance(dir string) (*CellzomeInstance, error) { return dataset.LoadInstance(dir) }

// RNG is the deterministic random number generator used by all
// synthetic generators.
type RNG = xrand.RNG

// NewRNG returns a generator with the given seed.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// RandomHypergraph generates a uniform random hypergraph (sizes in
// [1, maxSize]).
func RandomHypergraph(nv, ne, maxSize int, rng *RNG) *Hypergraph {
	return gen.RandomHypergraph(nv, ne, maxSize, rng)
}

// SyntheticProteome generates a Cellzome-shaped protein-complex
// hypergraph at an arbitrary scale (e.g. 20000 proteins for a
// human-proteome-sized workload).
func SyntheticProteome(nProteins, nComplexes int, seed uint64) *Hypergraph {
	return dataset.SyntheticProteome(nProteins, nComplexes, seed)
}
