package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"hyperplex/internal/bio"
	"hyperplex/internal/core"
	"hyperplex/internal/cover"
	"hyperplex/internal/dataset"
	"hyperplex/internal/gen"
	"hyperplex/internal/graph"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/stats"
	"hyperplex/internal/xrand"
)

// runF1 reproduces Fig. 1: the protein degree distribution of the
// Cellzome hypergraph and its power-law fit.
func runF1(w io.Writer, o options) error {
	inst := dataset.Cellzome()
	hist := stats.DegreeHistogram(inst.H.VertexDegrees())
	fmt.Fprintln(w, "degree  frequency")
	for d := 1; d < len(hist); d++ {
		if hist[d] > 0 {
			fmt.Fprintf(w, "%6d  %9d\n", d, hist[d])
		}
	}
	fit, err := stats.FitPowerLaw(hist)
	if err != nil {
		return err
	}
	p := inst.Published
	fmt.Fprintf(w, "fit:   log c = %.3f, gamma = %.3f, R² = %.3f\n", fit.LogC, fit.Gamma, fit.R2)
	fmt.Fprintf(w, "paper: log c = %.3f, gamma = %.3f, R² = %.3f\n", p.PowerLawLogC, p.PowerLawGamma, p.PowerLawR2)
	return nil
}

// runF2 reproduces Fig. 2: the k-cores of the illustrative graph
// (1-core = whole graph, 2-core = 3-core = maximum core, 4-core = ∅).
func runF2(w io.Writer, o options) error {
	g := graph.MustBuild(7, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // K4: the 3-core
		{3, 4}, {4, 5}, {0, 6}, // pendant path and leaf
	})
	coreness := core.GraphCoreness(g)
	fmt.Fprintf(w, "vertex coreness: %v\n", coreness)
	for k := 1; k <= 4; k++ {
		in := core.GraphKCore(g, k)
		n := 0
		for _, b := range in {
			if b {
				n++
			}
		}
		fmt.Fprintf(w, "%d-core: %d vertices\n", k, n)
	}
	k, _ := core.GraphMaxCore(g)
	fmt.Fprintf(w, "maximum core: %d-core (paper's figure: 3-core; 2-core = 3-core; 4-core empty)\n", k)
	return nil
}

// runF3 reproduces Fig. 3: the Pajek export with the maximum core
// highlighted (red proteins / green complexes).
func runF3(w io.Writer, o options) error {
	inst := dataset.Cellzome()
	mc := core.MaxCore(inst.H)
	netPath := filepath.Join(o.outDir, "fig3.net")
	cluPath := filepath.Join(o.outDir, "fig3.clu")
	nf, err := os.Create(netPath)
	if err != nil {
		return err
	}
	defer nf.Close()
	if err := writeNet(nf, inst, mc); err != nil {
		return err
	}
	cf, err := os.Create(cluPath)
	if err != nil {
		return err
	}
	defer cf.Close()
	if err := writeClu(cf, inst, mc); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d vertices + %d complexes, %d pins) and %s\n",
		netPath, inst.H.NumVertices(), inst.H.NumEdges(), inst.H.NumPins(), cluPath)
	fmt.Fprintf(w, "core highlight: %d proteins (red), %d complexes (green)\n", mc.NumVertices, mc.NumEdges)
	return nil
}

// runT1 reproduces Table 1: statistics and maximum cores of the
// Cellzome hypergraph and the synthetic Matrix Market suite.
func runT1(w io.Writer, o options) error {
	names, hs := dataset.Table1Hypergraphs(o.short)
	fmt.Fprintln(w, dataset.Table1Header())
	for i, h := range hs {
		row := dataset.Table1Row{
			Name:     names[i],
			NumV:     h.NumVertices(),
			NumF:     h.NumEdges(),
			Pins:     h.NumPins(),
			MaxVDeg:  h.MaxVertexDegree(),
			MaxFDeg:  h.MaxEdgeDegree(),
			MaxDeg2F: h.MaxDegree2Edge(),
		}
		start := time.Now()
		mc := core.MaxCore(h)
		row.ElapsedSec = time.Since(start).Seconds()
		row.MaxCoreK = mc.K
		row.CoreV = mc.NumVertices
		row.CoreF = mc.NumEdges
		fmt.Fprintln(w, row.Format())
	}
	fmt.Fprintln(w, "paper (2 GHz Xeon): Cellzome row had max core 6 with 41/54 in 0.47 s;")
	fmt.Fprintln(w, "larger rows ran seconds to hours — absolute times are machine-bound, the size→time ordering is the reproducible shape.")
	return nil
}

// runS2 reproduces the §2 text statistics.
func runS2(w io.Writer, o options) error {
	inst := dataset.Cellzome()
	h := inst.H
	p := inst.Published
	_, _, comps := stats.Components(h)
	deg1 := 0
	for v := 0; v < h.NumVertices(); v++ {
		if h.VertexDegree(v) == 1 {
			deg1++
		}
	}
	sw := stats.SmallWorldStats(h, runtime.NumCPU())
	adh1, _ := h.VertexID("ADH1")
	fmt.Fprintf(w, "%-34s %10s %10s\n", "metric", "measured", "paper")
	row := func(name string, got, want interface{}) {
		fmt.Fprintf(w, "%-34s %10v %10v\n", name, got, want)
	}
	row("proteins", h.NumVertices(), p.Proteins)
	row("complexes", h.NumEdges(), p.Complexes)
	row("connected components", len(comps), p.Components)
	row("largest component proteins", comps[0].Vertices, p.LargestCompV)
	row("largest component complexes", comps[0].Edges, p.LargestCompF)
	row("degree-1 proteins", deg1, p.DegreeOneProteins)
	row("max protein degree (ADH1)", h.VertexDegree(adh1), p.MaxProteinDegree)
	row("diameter", sw.Diameter, p.Diameter)
	row("average path length", fmt.Sprintf("%.3f", sw.AvgPathLength), p.AvgPathLength)

	// §2's second distributional claim: protein degrees follow a power
	// law, complex degrees satisfy neither a power law nor an
	// exponential.
	pv := stats.JudgeDistribution(stats.DegreeHistogram(h.VertexDegrees()), 0.9)
	cv := stats.JudgeDistribution(stats.DegreeHistogram(h.EdgeDegrees()), 0.9)
	fmt.Fprintf(w, "protein degrees:  %v\n", pv)
	fmt.Fprintf(w, "complex degrees:  %v\n", cv)
	fmt.Fprintln(w, "paper: protein degrees satisfy a power law; complex degrees satisfy neither distribution")
	return nil
}

// runS3 reproduces §3: the core proteome of the Cellzome hypergraph,
// its enrichment in essential and homologous proteins, and the DIP
// graph cores.
func runS3(w io.Writer, o options) error {
	inst := dataset.Cellzome()
	h := inst.H
	p := inst.Published

	start := time.Now()
	mc := core.MaxCore(h)
	elapsed := time.Since(start)
	fmt.Fprintf(w, "maximum core: %d-core with %d proteins and %d complexes in %.3fs (paper: %d-core, %d/%d, 0.47s)\n",
		mc.K, mc.NumVertices, mc.NumEdges, elapsed.Seconds(), p.MaxCoreK, p.MaxCoreProteins, p.MaxCoreComplexes)

	// Characterize the core proteome.
	unknown, knownEssential, homologs, homologUnknown := 0, 0, 0, 0
	for v := range mc.VertexIn {
		if !mc.VertexIn[v] {
			continue
		}
		if !inst.Ann.Known[v] {
			unknown++
			if inst.Ann.Homolog[v] {
				homologUnknown++
			}
		} else if inst.Ann.Essential[v] {
			knownEssential++
		}
		if inst.Ann.Homolog[v] {
			homologs++
		}
	}
	fmt.Fprintf(w, "core characterization: %d unknown (paper %d); %d of %d known essential (paper %d of %d); %d homologs, %d among unknown (paper %d, %d)\n",
		unknown, p.CoreUnknown, knownEssential, mc.NumVertices-unknown, p.CoreKnownEssential, 41-p.CoreUnknown,
		homologs, homologUnknown, p.CoreHomologs, 3)

	known := make([]bool, h.NumVertices())
	for v := range known {
		known[v] = mc.VertexIn[v] && inst.Ann.Known[v]
	}
	e := bio.EnrichmentOf(known, inst.Ann.Essential, bio.GenomeEssentialFraction(), "essential proteins in the core")
	fmt.Fprintf(w, "enrichment: %v\n", e)
	fmt.Fprintf(w, "genome background: %d essential / %d non-essential\n", bio.GenomeEssential, bio.GenomeNonEssential)

	// DIP graph cores.
	for _, gi := range []*dataset.GraphInstance{dataset.DIPYeast(), dataset.DIPFly()} {
		k, in := core.GraphMaxCore(gi.G)
		n := 0
		for _, b := range in {
			if b {
				n++
			}
		}
		fmt.Fprintf(w, "%s: %d proteins, max core k = %d with %d proteins (paper: %d, k = %d, %d)\n",
			gi.Published.Name, gi.G.NumVertices(), k, n,
			gi.Published.Proteins, gi.Published.MaxCoreK, gi.Published.CoreSize)
	}
	return nil
}

// runS4 reproduces §4.2: the three covers and the Cellzome bait
// baseline.
func runS4(w io.Writer, o options) error {
	inst := dataset.Cellzome()
	h := inst.H
	p := inst.Published

	c1, err := cover.CSRGreedyMulticover(h, nil, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "greedy min-cardinality cover:  %4d proteins, avg degree %.2f   (paper: %d @ %.1f)\n",
		c1.Size(), c1.AverageDegree(h), p.GreedyCoverSize, p.GreedyCoverAvgDeg)

	c2, err := cover.CSRGreedyMulticover(h, cover.DegreeSquaredWeights(h), nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "degree²-weighted cover:        %4d proteins, avg degree %.2f   (paper: %d @ %.2f)\n",
		c2.Size(), c2.AverageDegree(h), p.WeightedCoverSize, p.WeightedCoverAvgD)

	req := cover.UniformRequirement(h, 2)
	for _, f := range inst.Singletons {
		req[f] = 0
	}
	c3, err := cover.CSRGreedyMulticover(h, cover.DegreeSquaredWeights(h), req)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "2-multicover (%d complexes):  %4d proteins, avg degree %.2f   (paper: %d @ %.2f)\n",
		h.NumEdges()-len(inst.Singletons), c3.Size(), c3.AverageDegree(h), p.MulticoverSize, p.MulticoverAvgDeg)
	fmt.Fprintln(w, "note: the paper's 558 exceeds the multicover maximum of 2×229 = 458 picks; see EXPERIMENTS.md.")

	bs := bio.ComputeBaitStats(h, inst.BaitsReported)
	fmt.Fprintf(w, "Cellzome baseline baits:       %4d proteins, avg degree %.2f   (paper: %d @ %.2f; pulled 1/2/3: %d/%d/%d)\n",
		bs.Count, bs.AverageDegree, p.BaitsReported, p.BaitAvgDegree, p.BaitsPulledOne, p.BaitsPulledTwo, p.BaitsPulledThree)
	return nil
}

// runX1 quantifies the reliability argument: at 70 % pull-down
// reproducibility, a 2-multicover recovers more complexes than a
// single cover of comparable quality.
func runX1(w io.Writer, o options) error {
	inst := dataset.Cellzome()
	h := inst.H
	weights := cover.DegreeSquaredWeights(h)

	c1, err := cover.CSRGreedyMulticover(h, weights, nil)
	if err != nil {
		return err
	}
	req := cover.UniformRequirement(h, 2)
	for _, f := range inst.Singletons {
		req[f] = 0
	}
	c2, err := cover.CSRGreedyMulticover(h, weights, req)
	if err != nil {
		return err
	}
	// A requirements vector derived from the reliability model itself:
	// r_f = ⌈ln(1−target)/ln(1−p)⌉ for a 95 % per-complex target at
	// p = 0.7 (capped at the complex size).
	params := bio.DefaultTAPParams()
	reqR, err := bio.RequirementsForReliability(h, params.PullDownSuccess, 0.95)
	if err != nil {
		return err
	}
	c4, err := cover.CSRGreedyMulticover(h, weights, reqR)
	if err != nil {
		return err
	}
	sets := map[string][]int{
		"weighted cover (r=1)":    c1.Vertices,
		"2-multicover (r=2)":      c2.Vertices,
		"reliability multicover":  c4.Vertices,
		"Cellzome reported baits": inst.BaitsReported,
	}
	rng := xrand.New(0x7a9)
	trials := bio.CompareReliability(h, sets, bio.DefaultTAPParams(), o.trials, rng)
	fmt.Fprintf(w, "%d trials at %.0f%% pull-down success, %.0f%% prey detection, %.0f%% recovery threshold\n",
		o.trials, 100*bio.DefaultTAPParams().PullDownSuccess, 100*bio.DefaultTAPParams().PreyDetection, 100*bio.DefaultTAPParams().RecoveryFraction)
	fmt.Fprintf(w, "%-26s %6s %12s %12s %14s\n", "bait set", "baits", "mean recov", "min recov", "mean pulldowns")
	for _, tr := range trials {
		fmt.Fprintf(w, "%-26s %6d %11.1f%% %11.1f%% %14.1f\n",
			tr.Name, len(tr.Baits), 100*tr.MeanRecovery, 100*tr.MinRecovery, tr.MeanPullDowns)
	}

	// Beyond touching complexes: the fidelity of the *observed network*
	// each bait design reconstructs (one representative screen each).
	fmt.Fprintln(w, "\nobserved-network fidelity (one screen each):")
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		screen := bio.SimulateScreen(h, sets[name], bio.DefaultTAPParams(), rng.Split())
		obs := bio.ObservedHypergraph(h, screen)
		fi, err := bio.NetworkFidelity(h, obs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-26s %v\n", name, fi)
	}
	return nil
}

// runX2 compares the greedy and primal-dual covers, with the dual
// lower bound certifying both.
func runX2(w io.Writer, o options) error {
	inst := dataset.Cellzome()
	h := inst.H
	for _, tc := range []struct {
		name    string
		weights []float64
	}{
		{"unit weights", nil},
		{"degree² weights", cover.DegreeSquaredWeights(h)},
	} {
		g, err := cover.CSRGreedyMulticover(h, tc.weights, nil)
		if err != nil {
			return err
		}
		pd, err := cover.PrimalDual(h, tc.weights)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: greedy weight %.0f (%d proteins) | primal-dual weight %.0f (%d proteins), dual LB %.1f, certified ratio %.2f\n",
			tc.name, g.Weight, g.Size(), pd.Cover.Weight, pd.Cover.Size(), pd.DualValue, pd.ApproxRatio())
		hm := cover.HarmonicBound(h.NumEdges())
		fmt.Fprintf(w, "  greedy guarantee H_m = %.2f; primal-dual guarantee Δ_F = %d (paper §4.1: greedy's bound is better here)\n",
			hm, h.MaxEdgeDegree())
	}

	// The guarantee crossover: on a 3-uniform hypergraph Δ_F = 3 beats
	// H_m once m > 10, so the primal-dual certificate is the stronger
	// a-priori bound even when greedy's solutions stay better.  The
	// exact optimum referees both on a small instance.
	rng := xrand.New(0x2c)
	edges := make([][]int32, 60)
	for f := range edges {
		seen := map[int32]bool{}
		for len(seen) < 3 {
			seen[int32(rng.Intn(40))] = true
		}
		for v := range seen {
			edges[f] = append(edges[f], v)
		}
	}
	hu, err := hypergraph.FromEdgeSets(40, edges)
	if err != nil {
		return err
	}
	gU, err := cover.CSRGreedyMulticover(hu, nil, nil)
	if err != nil {
		return err
	}
	pdU, err := cover.PrimalDual(hu, nil)
	if err != nil {
		return err
	}
	exU, err := cover.Exact(hu, nil, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "3-uniform random (m=%d): optimum %.0f | greedy %.0f (H_m = %.2f) | primal-dual %.0f (Δ_F = %d < H_m: the guarantee crossover)\n",
		hu.NumEdges(), exU.Weight, gU.Weight, cover.HarmonicBound(hu.NumEdges()), pdU.Cover.Weight, hu.MaxEdgeDegree())
	return nil
}

// runX3 times the k-core at scale: the one peeler stopped at level k,
// the full decomposition it caps, and the sharded engine at several
// shard counts, each checked against the others.
func runX3(w io.Writer, o options) error {
	spec := gen.MatrixSpec{Name: "scale", Rows: 30000, Cols: 30000, Band: 12, BandFill: 0.7, RandomPerRow: 2, Seed: 0xA11}
	if o.short {
		spec.Rows, spec.Cols = 6000, 6000
	}
	m := gen.SyntheticMatrix(spec)
	h, err := toHypergraph(m)
	if err != nil {
		return err
	}
	k := 8
	start := time.Now()
	kc := core.KCore(h, k)
	kcT := time.Since(start)
	fmt.Fprintf(w, "hypergraph |V|=%d |F|=%d |E|=%d, k=%d (host has %d CPU(s))\n", h.NumVertices(), h.NumEdges(), h.NumPins(), k, runtime.NumCPU())
	fmt.Fprintf(w, "%-31s %8.3fs (core %d/%d)\n", fmt.Sprintf("%d-core, peel stopped at level %d:", k, k), kcT.Seconds(), kc.NumVertices, kc.NumEdges)
	start = time.Now()
	d := core.Decompose(h)
	dT := time.Since(start)
	if c := d.Core(k); !slices.Equal(c.VertexIn, kc.VertexIn) || !slices.Equal(c.EdgeIn, kc.EdgeIn) {
		return fmt.Errorf("X3: the full decomposition's %d-core differs from KCore's", k)
	}
	fmt.Fprintf(w, "%-31s %8.3fs (max k = %d, %d-core %d/%d) [OK]\n", "full decomposition:", dT.Seconds(), d.MaxK, k, kc.NumVertices, kc.NumEdges)
	shardSet := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		shardSet = append(shardSet, n)
	}
	for _, shards := range shardSet {
		start = time.Now()
		sd := core.ShardedDecompose(h, core.ShardedOptions{Shards: shards})
		t := time.Since(start)
		if sd.MaxK != d.MaxK || !slices.Equal(sd.VertexCoreness, d.VertexCoreness) || !slices.Equal(sd.EdgeCoreness, d.EdgeCoreness) {
			return fmt.Errorf("X3: the sharded decomposition at %d shards differs from the sequential one", shards)
		}
		fmt.Fprintf(w, "%-31s %8.3fs full decomposition [OK]\n", fmt.Sprintf("sharded %d shards:", shards), t.Seconds())
	}
	return nil
}

// runX5 scales the core computation to a human-proteome-sized
// instance, the workload the paper's conclusion calls for.
func runX5(w io.Writer, o options) error {
	nP, nC := 20000, 3000
	if o.short {
		nP, nC = 5000, 800
	}
	h := dataset.SyntheticProteome(nP, nC, 0x42A1)
	fmt.Fprintf(w, "synthetic human-scale proteome: %v (Cellzome was 1361/232)\n", h)
	start := time.Now()
	mc := core.MaxCore(h)
	fmt.Fprintf(w, "maximum core: %d-core with %d proteins / %d complexes in %.3fs\n",
		mc.K, mc.NumVertices, mc.NumEdges, time.Since(start).Seconds())
	start = time.Now()
	sw := stats.SmallWorldStats(h, runtime.NumCPU())
	fmt.Fprintf(w, "exact small-world (all %d sources): diameter %d, avg path %.3f (%.3fs)\n",
		sw.Sources, sw.Diameter, sw.AvgPathLength, time.Since(start).Seconds())
	return nil
}

// runX6 quantifies §3's warning that predicting complexes from the
// cores of protein-interaction graphs is error-prone: the
// clique-expansion PPI graph's dense cores are compared against the
// true complexes of the hypergraph.
func runX6(w io.Writer, o options) error {
	inst := dataset.Cellzome()
	h := inst.H
	g := graph.CliqueExpansion(h)

	coreness := core.GraphCoreness(g)
	maxK := 0
	for _, c := range coreness {
		if c > maxK {
			maxK = c
		}
	}
	fmt.Fprintf(w, "clique-expansion PPI graph: %d vertices, %d edges, max core k = %d\n",
		g.NumVertices(), g.NumEdges(), maxK)

	// Predict complexes as the connected components of high-k graph
	// cores (the §3-cited approach), at a few levels.
	for _, k := range []int{maxK, maxK * 3 / 4, maxK / 2} {
		if k < 1 {
			continue
		}
		keep := make([]bool, g.NumVertices())
		for v, c := range coreness {
			keep[v] = c >= k
		}
		sub, vMap := g.Subgraph(keep)
		comp, n := sub.Components()
		// Invert the vertex map to original IDs.
		inv := make([]int, sub.NumVertices())
		for old, nw := range vMap {
			inv[nw] = old
		}
		preds := make([][]bool, n)
		for i := range preds {
			preds[i] = make([]bool, h.NumVertices())
		}
		for v, c := range comp {
			preds[c][inv[v]] = true
		}
		// The best Jaccard of any prediction is the best of any
		// complex's.
		per, recovered := bio.ComplexRecovery(h, preds, 0.5)
		bestJ := slices.Max(per)
		fmt.Fprintf(w, "graph %2d-core components as predicted complexes: %3d predictions, best Jaccard %.2f, %d/%d true complexes recovered at J ≥ 0.5\n",
			k, n, bestJ, recovered, h.NumEdges())
	}

	// The hypergraph core, by contrast, returns actual complexes.
	mc := core.MaxCore(h)
	preds := make([][]bool, 0, mc.NumEdges)
	for f := range mc.EdgeIn {
		if !mc.EdgeIn[f] {
			continue
		}
		pred := make([]bool, h.NumVertices())
		for _, v := range h.Vertices(f) {
			pred[v] = true
		}
		preds = append(preds, pred)
	}
	_, recovered := bio.ComplexRecovery(h, preds, 0.5)
	fmt.Fprintf(w, "hypergraph 6-core hyperedges as predictions: %d predictions, %d/%d complexes recovered at J ≥ 0.5\n",
		len(preds), recovered, h.NumEdges())
	fmt.Fprintln(w, "paper §3: inferring complexes from graph cores is error-prone — the hypergraph keeps the complexes first-class.")
	return nil
}

// runX7 plays out §4's second scenario: select baits on a *model*
// organism's complex network and use them to screen a *related*
// organism whose proteome has diverged.  Cover-chosen baits are
// compared against random bait sets of the same size.
func runX7(w io.Writer, o options) error {
	inst := dataset.Cellzome()
	model := inst.H
	rng := xrand.New(0x017)

	orth, err := bio.GenerateOrthology(model, 0.8, 200, rng)
	if err != nil {
		return err
	}
	projected := bio.ProjectHypergraph(model, orth, 2)
	truth := bio.DivergeComplexes(projected, bio.DivergenceParams{
		DropComplex: 0.10, DropMember: 0.15, AddMember: 1.0,
	}, rng)
	fmt.Fprintf(w, "model organism: %v\n", model)
	fmt.Fprintf(w, "projected prediction for the target: %v\n", projected)
	fmt.Fprintf(w, "true (diverged) target network: %v\n", truth)

	// Bait selection on the projection — the only data a biologist has
	// before the screen.
	req, err := bio.RequirementsForReliability(projected, 0.7, 0.9)
	if err != nil {
		return err
	}
	c, err := cover.CSRGreedyMulticover(projected, cover.DegreeSquaredWeights(projected), req)
	if err != nil {
		return err
	}
	chosen, err := bio.TransferBaits(projected, truth, c.Vertices)
	if err != nil {
		return err
	}

	// Random baseline of the same size.
	perm := rng.Perm(truth.NumVertices())
	random := perm[:len(chosen)]

	params := bio.DefaultTAPParams()
	sets := map[string][]int{
		"projected-cover baits": chosen,
		"random baits":          random,
	}
	trials := bio.CompareReliability(truth, sets, params, o.trials, rng)
	fmt.Fprintf(w, "%-24s %6s %12s %12s\n", "bait set", "baits", "mean recov", "min recov")
	for _, tr := range trials {
		fmt.Fprintf(w, "%-24s %6d %11.1f%% %11.1f%%\n", tr.Name, len(tr.Baits), 100*tr.MeanRecovery, 100*tr.MinRecovery)
	}
	fmt.Fprintln(w, "→ covers computed on the model organism remain effective bait sets after divergence,")
	fmt.Fprintln(w, "  the transfer scenario §4 proposes.")
	return nil
}

// runX4 quantifies the §1.2 modeling argument: storage blow-up and
// clustering inflation of the competing representations.
func runX4(w io.Writer, o options) error {
	inst := dataset.Cellzome()
	h := inst.H
	s := stats.ComputeStorageCosts(h)
	fmt.Fprintf(w, "hypergraph pins |E|:            %7d\n", s.HypergraphPins)
	fmt.Fprintf(w, "clique-expansion edges:         %7d  (%.1fx the pins — the paper's O(n²) vs O(n))\n", s.CliqueExpansionEdges, s.CliqueBlowupFactor)
	fmt.Fprintf(w, "star-expansion edges:           %7d\n", s.StarExpansionEdges)
	fmt.Fprintf(w, "intersection-graph edges:       %7d  (%.2f per complex; proteins not represented at all)\n", s.IntersectionEdges, s.IntersectionPerMember)
	cc := graph.CliqueExpansion(h).ClusteringCoefficient()
	sc := graph.StarExpansion(h, nil).ClusteringCoefficient()
	fmt.Fprintf(w, "clustering coefficient: clique expansion %.3f vs star expansion %.3f (clique model inflates clustering [Maslov-Sneppen-Alon])\n", cc, sc)
	return nil
}
