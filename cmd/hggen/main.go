// Command hggen writes the synthetic datasets to disk.
//
// Usage:
//
//	hggen -dataset cellzome [-format text|json|mtx|pajek|store] [-o FILE]
//	hggen -dataset proteome -nv 20000 -ne 3000 -seed 42 [-o FILE]
//	hggen -dataset random -nv 100 -ne 50 -maxsize 8 -seed 42 [-o FILE]
//	hggen -dataset matrix -name fdp011 [-short] [-o FILE]   (Matrix Market output)
//
// -format picks the output format of the three hypergraph datasets,
// from the formats hgconvert -to writes; a store needs -o.  With no
// -o, output goes to stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"hyperplex/internal/cli"
	"hyperplex/internal/dataset"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/xrand"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hggen: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	defer cli.RecoverPanic(&err)
	fs := flag.NewFlagSet("hggen", flag.ContinueOnError)
	fs.SetOutput(stdout)
	ds := fs.String("dataset", "cellzome", "cellzome | proteome | random | matrix")
	format := fs.String("format", "text", "text | json | mtx | pajek | store (hypergraph datasets; store needs -o)")
	out := fs.String("o", "", "output file (default stdout)")
	nv := fs.Int("nv", 100, "random/proteome: number of vertices")
	ne := fs.Int("ne", 50, "random/proteome: number of hyperedges")
	maxSize := fs.Int("maxsize", 8, "random: maximum hyperedge size")
	seed := fs.Uint64("seed", 42, "RNG seed")
	name := fs.String("name", "bfw398a", "matrix: spec name from Table 1")
	short := fs.Bool("short", false, "matrix: shrunken dimensions")
	instanceDir := fs.String("instance", "", "cellzome: write the full instance (hypergraph, baits, annotations, core) to this directory")
	timeout := fs.Duration("timeout", 0, "abort if generation exceeds this duration (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := cli.WithTimeout(context.Background(), *timeout)
	defer cancel()
	// Generation runs in coarse stages; the deadline is checked between
	// them rather than inside the generators.
	if err := ctx.Err(); err != nil {
		return err
	}

	if *instanceDir != "" {
		if *ds != "cellzome" {
			return fmt.Errorf("-instance is only supported for -dataset cellzome")
		}
		inst := dataset.Cellzome()
		if err := inst.Save(*instanceDir); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "hggen: wrote instance to %s\n", *instanceDir)
		return nil
	}

	var h *hypergraph.Hypergraph
	switch *ds {
	case "cellzome":
		h = dataset.Cellzome().H
	case "proteome":
		h = dataset.SyntheticProteome(*nv, *ne, *seed)
	case "random":
		h = gen.RandomHypergraph(*nv, *ne, *maxSize, xrand.New(*seed))
	case "matrix":
		for _, spec := range gen.Table1Specs(*short) {
			if spec.Name == *name {
				return cli.Create(*out, stdout, func(w io.Writer) error { return mmio.Write(w, gen.SyntheticMatrix(spec)) })
			}
		}
		return fmt.Errorf("unknown matrix spec %q; known: bfw398a utm5940 fdp011 stk32 fdpm37", *name)
	default:
		return fmt.Errorf("unknown dataset %q", *ds)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := cli.Write(ctx, *format, *out, stdout, h); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "hggen: wrote |V|=%d |F|=%d |E|=%d\n", h.NumVertices(), h.NumEdges(), h.NumPins())
	return nil
}
