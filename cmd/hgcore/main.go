// Command hgcore computes k-cores of a hypergraph.
//
// Usage:
//
//	hgcore [-k N [-l N] | -max | -decompose] [-mtx | -store FILE] [-shards N] [-dist N [-hgshardd PATH] [-local-fallback]] [-pajek PREFIX] [file]
//
// With -k it prints the members of the k-core (or the (k, l)-core with
// -l); with -max (default) the maximum core; with -decompose the
// coreness of every vertex.  The three modes are alternatives.  -shards
// and -dist run the decomposition on the sharded or distributed engine,
// which print the same bytes; -l applies only to -k without them, and
// -hgshardd and -local-fallback only with -dist.  -pajek writes
// PREFIX.net and PREFIX.clu with the core of -k or -max highlighted
// (Fig. 3 of the paper).  A flag outside its mode is a usage error.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"hyperplex/internal/cli"
	"hyperplex/internal/core"
	"hyperplex/internal/dist"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/pajek"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hgcore: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) (err error) {
	defer cli.RecoverPanic(&err)
	fs := flag.NewFlagSet("hgcore", flag.ContinueOnError)
	fs.SetOutput(stdout)
	k := fs.Int("k", -1, "compute the k-core for this k")
	l := fs.Int("l", 1, "minimum hyperedge size (the l of a (k, l)-core; -k without -shards or -dist only)")
	max := fs.Bool("max", false, "compute the maximum core (default when -k and -decompose are absent)")
	decompose := fs.Bool("decompose", false, "print the coreness of every vertex")
	mtx := fs.Bool("mtx", false, "input is a Matrix Market file")
	storePath := fs.String("store", "", "read the hypergraph from this binary store file (memory-mapped; overrides [file] and -mtx)")
	shards := fs.Int("shards", 0, "use the sharded decomposition engine with this many shards (0 = sequential)")
	distN := fs.Int("dist", 0, "run the decomposition on a fault-tolerant pool of this many workers (0 = in-process)")
	hgshardd := fs.String("hgshardd", "", "spawn -dist workers as OS processes running this hgshardd binary (empty = in-process workers)")
	localFallback := fs.Bool("local-fallback", false, "with -dist, degrade to the in-process sharded engine if the worker pool collapses")
	pajekPrefix := fs.String("pajek", "", "write PREFIX.net and PREFIX.clu with the core highlighted")
	quiet := fs.Bool("quiet", false, "suppress the member listing")
	timeout := fs.Duration("timeout", 0, "abort if reading plus peeling exceed this duration (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine := *shards > 0 || *distN > 0
	if *l > 1 && (*k < 0 || *decompose || engine) {
		return fmt.Errorf("-l %d applies only to -k without -shards or -dist; -max, -decompose, -shards and -dist peel plain k-cores", *l)
	}
	if err := checkFlags(*k >= 0, *max, *decompose, *pajekPrefix != "", *distN > 0, *hgshardd != "", *localFallback); err != nil {
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

	// decomposeVia routes through the distributed runtime when -dist is
	// set, the sharded engine when -shards is set, otherwise through
	// the sequential peeler; all three return the same decomposition.
	decomposeVia := func() (*core.Decomposition, error) {
		switch {
		case *distN > 0:
			opts := dist.Options{
				Workers:       *distN,
				Shards:        *shards,
				LocalFallback: *localFallback,
				WorkerStderr:  os.Stderr,
			}
			if *hgshardd != "" {
				opts.WorkerCommand = []string{*hgshardd}
			}
			return dist.DecomposeCtx(ctx, h, opts)
		case *shards > 0:
			return core.ShardedDecomposeCtx(ctx, h, core.ShardedOptions{Shards: *shards})
		default:
			return core.DecomposeCtx(ctx, h)
		}
	}

	switch {
	case *decompose:
		d, err := decomposeVia()
		if err != nil {
			return err
		}
		w := bufio.NewWriter(stdout)
		fmt.Fprintf(w, "maximum core: %d\n", d.MaxK)
		for _, lvl := range d.Profile() {
			fmt.Fprintf(w, "  %d-core: %d vertices, %d hyperedges\n", lvl.K, lvl.Vertices, lvl.Edges)
		}
		if !*quiet {
			for v := 0; v < h.NumVertices(); v++ {
				fmt.Fprintf(w, "%s\t%d\n", h.VertexLabel(v), d.VertexCoreness[v])
			}
		}
		return w.Flush()
	case *k >= 0 && engine:
		d, err := decomposeVia()
		if err != nil {
			return err
		}
		return report(stdout, h, d.Core(*k), *pajekPrefix, *quiet)
	case *k >= 0:
		r, err := core.BiCoreCtx(ctx, h, *k, *l)
		if err != nil {
			return err
		}
		return report(stdout, h, r, *pajekPrefix, *quiet)
	default:
		_ = max
		d, err := decomposeVia()
		if err != nil {
			return err
		}
		return report(stdout, h, d.Core(d.MaxK), *pajekPrefix, *quiet)
	}
}

// checkFlags rejects the flag combinations whose extra flag would
// otherwise be ignored without a word: -k, -max and -decompose are
// alternatives, -pajek writes a core so -decompose has nothing to
// write, and -hgshardd and -local-fallback only configure -dist.
func checkFlags(k, max, decompose, pajek, dist, hgshardd, localFallback bool) error {
	var modes []string
	if k {
		modes = append(modes, "-k")
	}
	if max {
		modes = append(modes, "-max")
	}
	if decompose {
		modes = append(modes, "-decompose")
	}
	switch {
	case len(modes) > 1:
		return fmt.Errorf("%s are alternatives: give one of -k, -max and -decompose", strings.Join(modes, " and "))
	case decompose && pajek:
		return errors.New("-pajek writes the core of -k or -max; -decompose lists coreness and writes no Pajek files")
	case hgshardd && !dist:
		return errors.New("-hgshardd names the worker binary of -dist; give -dist N with it")
	case localFallback && !dist:
		return errors.New("-local-fallback applies only to -dist; give -dist N with it")
	}
	return nil
}

func report(stdout io.Writer, h *hypergraph.Hypergraph, r *core.Result, pajekPrefix string, quiet bool) error {
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "%d-core: %d vertices, %d hyperedges\n", r.K, r.NumVertices, r.NumEdges)
	if !quiet {
		for v := range r.VertexIn {
			if r.VertexIn[v] {
				fmt.Fprintf(w, "vertex %s\n", h.VertexLabel(v))
			}
		}
		for f := range r.EdgeIn {
			if r.EdgeIn[f] {
				fmt.Fprintf(w, "hyperedge %s\n", h.EdgeLabel(f))
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if pajekPrefix == "" {
		return nil
	}
	if err := writePajek(h, r, pajekPrefix); err != nil {
		return err
	}
	_, err := fmt.Fprintf(stdout, "wrote %s.net and %s.clu\n", pajekPrefix, pajekPrefix)
	return err
}

func writePajek(h *hypergraph.Hypergraph, r *core.Result, prefix string) error {
	if err := cli.Create(prefix+".net", nil, func(w io.Writer) error { return pajek.WriteNet(w, h, r.VertexIn, r.EdgeIn) }); err != nil {
		return err
	}
	return cli.Create(prefix+".clu", nil, func(w io.Writer) error { return pajek.WriteClu(w, h, r.VertexIn, r.EdgeIn) })
}
