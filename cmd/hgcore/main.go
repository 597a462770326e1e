// Command hgcore computes k-cores of a hypergraph.
//
// Usage:
//
//	hgcore [-k N | -max | -decompose] [-l N] [-mtx | -store FILE] [-parallel N] [-shards N] [-dist N [-hgshardd PATH] [-local-fallback]] [-pajek PREFIX] [file]
//
// With -k it prints the members of the k-core (or the (k, l)-core with
// -l); with -max (default) the maximum core; with -decompose the
// coreness of every vertex.  -pajek writes PREFIX.net and PREFIX.clu
// with the core highlighted (Fig. 3 of the paper).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

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
	l := fs.Int("l", 1, "minimum hyperedge size (the l of a (k, l)-core)")
	max := fs.Bool("max", false, "compute the maximum core (default when -k and -decompose are absent)")
	decompose := fs.Bool("decompose", false, "print the coreness of every vertex")
	mtx := fs.Bool("mtx", false, "input is a Matrix Market file")
	storePath := fs.String("store", "", "read the hypergraph from this binary store file (memory-mapped; overrides [file] and -mtx)")
	parallel := fs.Int("parallel", 0, "use the parallel algorithm with this many workers (0 = sequential)")
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
	ctx, cancel := cli.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var h *hypergraph.Hypergraph
	if *storePath != "" {
		st, sh, err := cli.OpenStoreCtx(ctx, *storePath)
		if err != nil {
			return err
		}
		// The hypergraph aliases the store's mapped arrays; keep the
		// backend open for the whole run.
		defer st.Close()
		h = sh
	} else {
		h, err = cli.ReadHypergraphCtx(ctx, *mtx, fs.Arg(0), stdin)
		if err != nil {
			return err
		}
	}

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
		fmt.Fprintf(stdout, "maximum core: %d\n", d.MaxK)
		for _, lvl := range d.Profile() {
			fmt.Fprintf(stdout, "  %d-core: %d vertices, %d hyperedges\n", lvl.K, lvl.Vertices, lvl.Edges)
		}
		if !*quiet {
			for v := 0; v < h.NumVertices(); v++ {
				fmt.Fprintf(stdout, "%s\t%d\n", cli.VertexLabel(h, v), d.VertexCoreness[v])
			}
		}
		return nil
	case *k >= 0:
		var r *core.Result
		switch {
		case *l > 1:
			r, err = core.BiCoreCtx(ctx, h, *k, *l)
		case *parallel > 0:
			r, err = core.KCoreParallelCtx(ctx, h, *k, *parallel)
		default:
			r, err = core.KCoreCtx(ctx, h, *k)
		}
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

func report(stdout io.Writer, h *hypergraph.Hypergraph, r *core.Result, pajekPrefix string, quiet bool) error {
	fmt.Fprintf(stdout, "%d-core: %d vertices, %d hyperedges\n", r.K, r.NumVertices, r.NumEdges)
	if !quiet {
		w := bufio.NewWriter(stdout)
		for v := range r.VertexIn {
			if r.VertexIn[v] {
				fmt.Fprintf(w, "vertex %s\n", cli.VertexLabel(h, v))
			}
		}
		for f := range r.EdgeIn {
			if r.EdgeIn[f] {
				fmt.Fprintf(w, "hyperedge %s\n", cli.EdgeLabel(h, f))
			}
		}
		w.Flush()
	}
	if pajekPrefix != "" {
		if err := writePajek(h, r, pajekPrefix); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s.net and %s.clu\n", pajekPrefix, pajekPrefix)
	}
	return nil
}

func writePajek(h *hypergraph.Hypergraph, r *core.Result, prefix string) error {
	nf, err := os.Create(prefix + ".net")
	if err != nil {
		return err
	}
	defer nf.Close()
	if err := pajek.WriteNet(nf, h, r.VertexIn, r.EdgeIn); err != nil {
		return err
	}
	cf, err := os.Create(prefix + ".clu")
	if err != nil {
		return err
	}
	defer cf.Close()
	return pajek.WriteClu(cf, h, r.VertexIn, r.EdgeIn)
}
