// Command hgcover computes approximate minimum-weight vertex covers
// and multicovers of a hypergraph — the paper's bait-selection tool.
//
// Usage:
//
//	hgcover [-weights unit|degree2] [-r N | -reliability P,TARGET] [-skip-singletons]
//	        [-primal-dual | -exact] [-mtx | -store FILE] [file]
//
// -weights degree2 weights each vertex by the square of its degree,
// biasing the cover toward low-degree baits (§4.2).  -r 2 computes a
// 2-multicover; -reliability 0.7,0.95 derives per-complex requirements
// from a pull-down success probability and a recovery target;
// -skip-singletons drops hyperedges too small to satisfy the
// requirement instead of failing.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"hyperplex/internal/bio"
	"hyperplex/internal/cli"
	"hyperplex/internal/cover"
	"hyperplex/internal/hypergraph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hgcover: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) (err error) {
	defer cli.RecoverPanic(&err)
	fs := flag.NewFlagSet("hgcover", flag.ContinueOnError)
	fs.SetOutput(stdout)
	weightScheme := fs.String("weights", "unit", "vertex weights: unit, degree2, or file:PATH (lines of \"name weight\" — the expert-preference weighting §4.2 suggests)")
	r := fs.Int("r", 1, "cover each hyperedge at least this many times")
	reliability := fs.String("reliability", "", "derive requirements from P,TARGET (e.g. 0.7,0.95)")
	skipSingletons := fs.Bool("skip-singletons", false, "drop hyperedges smaller than the requirement instead of failing")
	primalDual := fs.Bool("primal-dual", false, "use the certifying primal-dual algorithm (r must be 1)")
	exact := fs.Bool("exact", false, "use exact branch-and-bound (small instances, r must be 1)")
	mtx := fs.Bool("mtx", false, "input is a Matrix Market file")
	storePath := fs.String("store", "", "read the hypergraph from this binary store file (memory-mapped; overrides [file] and -mtx)")
	quiet := fs.Bool("quiet", false, "suppress the member listing")
	timeout := fs.Duration("timeout", 0, "abort if reading plus covering exceed this duration (0 = no limit)")
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

	var weights []float64
	switch {
	case *weightScheme == "unit":
		weights = nil
	case *weightScheme == "degree2":
		weights = cover.DegreeSquaredWeights(h)
	case strings.HasPrefix(*weightScheme, "file:"):
		weights, err = loadWeights(h, strings.TrimPrefix(*weightScheme, "file:"))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown weight scheme %q (want unit, degree2, or file:PATH)", *weightScheme)
	}

	req := cover.UniformRequirement(h, *r)
	if *reliability != "" {
		p, target, err := parseReliability(*reliability)
		if err != nil {
			return err
		}
		req, err = bio.RequirementsForReliability(h, p, target)
		if err != nil {
			return err
		}
	}
	skipped := 0
	if *skipSingletons {
		for f := 0; f < h.NumEdges(); f++ {
			if h.EdgeDegree(f) < req[f] {
				req[f] = 0
				skipped++
			}
		}
	}

	var c *cover.Cover
	switch {
	case *primalDual:
		if *r != 1 {
			return fmt.Errorf("-primal-dual supports only -r 1")
		}
		res, err := cover.PrimalDualCtx(ctx, h, weights)
		if err != nil {
			return err
		}
		c = res.Cover
		if _, err := fmt.Fprintf(stdout, "dual lower bound %.2f, certified ratio %.2f\n", res.DualValue, res.ApproxRatio()); err != nil {
			return err
		}
	case *exact:
		if *r != 1 {
			return fmt.Errorf("-exact supports only -r 1")
		}
		c, err = cover.ExactCtx(ctx, h, weights, 0)
		if err != nil {
			return err
		}
	default:
		c, err = cover.CSRGreedyMulticoverCtx(ctx, h, weights, req)
		if err != nil {
			return err
		}
	}
	if *primalDual || *exact {
		// These paths solved the plain covering problem.
		req = nil
	}
	if err := cover.Verify(h, c, req); err != nil {
		return fmt.Errorf("internal error: produced cover fails verification: %w", err)
	}

	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "cover: %d vertices, weight %.2f, average degree %.2f", c.Size(), c.Weight, c.AverageDegree(h))
	if skipped > 0 {
		fmt.Fprintf(w, " (%d hyperedges skipped)", skipped)
	}
	fmt.Fprintln(w)
	if !*quiet {
		for _, v := range c.Vertices {
			fmt.Fprintln(w, h.VertexLabel(v))
		}
	}
	return w.Flush()
}

// loadWeights reads "name weight" lines; proteins absent from the file
// get weight 1.  Blank lines and '#' comments are ignored.
func loadWeights(h *hypergraph.Hypergraph, path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	weights := cover.UnitWeights(h)
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("weights %s:%d: want \"name weight\", got %q", path, lineNo, line)
		}
		v, ok := h.VertexID(fields[0])
		if !ok {
			return nil, fmt.Errorf("weights %s:%d: unknown protein %q", path, lineNo, fields[0])
		}
		w, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("weights %s:%d: bad weight %q (must be positive)", path, lineNo, fields[1])
		}
		weights[v] = w
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return weights, nil
}

func parseReliability(s string) (p, target float64, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("-reliability wants P,TARGET, got %q", s)
	}
	p, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	target, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("-reliability wants P,TARGET, got %q", s)
	}
	return p, target, nil
}
