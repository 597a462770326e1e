// Command hgstats prints Table 1-style statistics for a hypergraph:
// sizes, degree extremes, components, degree-distribution power-law
// fit, and optionally small-world metrics and the maximum core.
//
// Usage:
//
//	hgstats [-mtx | -store FILE] [-smallworld] [-core] [file]
//
// The input is the native text format ("name: members..."), or a
// Matrix Market file with -mtx (columns become hyperedges).  With no
// file, stdin is read.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"hyperplex/internal/cli"
	"hyperplex/internal/core"
	"hyperplex/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hgstats: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) (err error) {
	defer cli.RecoverPanic(&err)
	fs := flag.NewFlagSet("hgstats", flag.ContinueOnError)
	fs.SetOutput(stdout)
	mtx := fs.Bool("mtx", false, "input is a Matrix Market file")
	storePath := fs.String("store", "", "read the hypergraph from this binary store file (memory-mapped; overrides [file] and -mtx)")
	smallworld := fs.Bool("smallworld", false, "compute exact diameter and average path length (all-pairs BFS)")
	withCore := fs.Bool("core", false, "compute the maximum core")
	judge := fs.Bool("judge", false, "judge both degree distributions against power-law and exponential fits")
	timeout := fs.Duration("timeout", 0, "abort if the computation exceeds this duration (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := cli.WithTimeout(context.Background(), *timeout)
	defer cancel()

	h, release, err := cli.OpenInput(ctx, *storePath, *mtx, fs.Arg(0), stdin)
	if err != nil {
		return err
	}
	// A store's hypergraph aliases its mapped arrays; keep the input
	// open for the whole run.
	defer release()

	fmt.Fprintf(stdout, "|V| = %d   |F| = %d   |E| = %d\n", h.NumVertices(), h.NumEdges(), h.NumPins())
	fmt.Fprintf(stdout, "ΔV = %d   ΔF = %d   Δ2,F = %d\n", h.MaxVertexDegree(), h.MaxEdgeDegree(), h.MaxDegree2Edge())

	_, _, comps := stats.Components(h)
	fmt.Fprintf(stdout, "components: %d", len(comps))
	if len(comps) > 0 {
		fmt.Fprintf(stdout, " (largest: %d vertices, %d hyperedges)", comps[0].Vertices, comps[0].Edges)
	}
	fmt.Fprintln(stdout)

	hist := stats.DegreeHistogram(h.VertexDegrees())
	if fit, err := stats.FitPowerLaw(hist); err == nil {
		fmt.Fprintf(stdout, "vertex degree distribution: %v\n", fit)
	} else {
		fmt.Fprintf(stdout, "vertex degree distribution: %v\n", err)
	}

	if *judge {
		fmt.Fprintf(stdout, "vertex degrees:    %v\n", stats.JudgeDistribution(hist, 0.9))
		fmt.Fprintf(stdout, "hyperedge degrees: %v\n", stats.JudgeDistribution(stats.DegreeHistogram(h.EdgeDegrees()), 0.9))
	}
	if *smallworld {
		sw, err := stats.SmallWorldStatsCtx(ctx, h, runtime.NumCPU())
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "diameter = %d   average path length = %.3f (over %d connected pairs)\n",
			sw.Diameter, sw.AvgPathLength, sw.Pairs)
	}
	if *withCore {
		start := time.Now()
		mc, err := core.MaxCoreCtx(ctx, h)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "maximum core: %d-core with %d vertices and %d hyperedges (%.3fs)\n",
			mc.K, mc.NumVertices, mc.NumEdges, time.Since(start).Seconds())
	}
	return nil
}
