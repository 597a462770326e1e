// Command hgconvert converts hypergraphs between the supported
// interchange formats.
//
// Usage:
//
//	hgconvert -from text|json|mtx|store -to text|json|mtx|pajek|store [-o FILE] [input]
//
// Matrix Market input treats columns as hyperedges over row vertices;
// Matrix Market output writes the pattern matrix of the incidence
// relation.  Pajek is write-only (the bipartite drawing B(H)).  The
// binary store format needs a real file on both sides: -from store
// requires an input path (not stdin), -to store requires -o.  A
// file-backed text/.mtx input converting to a store streams through
// store.BuildFile (one pass over a text file, two over a Matrix Market
// file), so the hypergraph never has to fit in RAM.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"hyperplex/internal/cli"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/pajek"
	"hyperplex/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hgconvert: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (err error) {
	defer cli.RecoverPanic(&err)
	fs := flag.NewFlagSet("hgconvert", flag.ContinueOnError)
	fs.SetOutput(stdout)
	from := fs.String("from", "text", "input format: text | json | mtx | store")
	to := fs.String("to", "text", "output format: text | json | mtx | pajek | store")
	out := fs.String("o", "", "output file (default stdout)")
	timeout := fs.Duration("timeout", 0, "abort if the conversion exceeds this duration (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := cli.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// A file-backed text/.mtx source converting to a store never has to
	// exist in RAM: the streaming builder reads the input file directly,
	// once for text and twice for Matrix Market.  Stdin (not
	// re-openable) and the other input formats fall through to the
	// in-RAM read + write below.
	if *to == "store" && fs.Arg(0) != "" && (*from == "text" || *from == "mtx") {
		if *out == "" {
			return fmt.Errorf("-to store needs -o FILE (the store is written with fsync-and-rename, not streamed)")
		}
		if err := store.BuildFileCtx(ctx, *out, store.FileSource(*from, fs.Arg(0))); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "hgconvert: %s → store: streamed %s\n", *from, fs.Arg(0))
		return nil
	}

	var r io.Reader = stdin
	if fs.Arg(0) != "" && *from != "store" {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	var h *hypergraph.Hypergraph
	switch *from {
	case "text":
		h, err = hypergraph.ReadTextCtx(ctx, r)
	case "store":
		if fs.Arg(0) == "" {
			return fmt.Errorf("-from store needs an input file path (the store is memory-mapped, not streamed)")
		}
		var st *store.File
		st, h, err = cli.OpenStoreCtx(ctx, fs.Arg(0))
		if err == nil {
			// The hypergraph aliases the store's mapped arrays; keep
			// the backend open until the conversion is written out.
			defer st.Close()
		}
	case "json":
		var data []byte
		data, err = io.ReadAll(r)
		if err == nil {
			h, err = hypergraph.UnmarshalJSONHypergraph(data)
		}
	case "mtx":
		var m *mmio.Matrix
		m, err = mmio.ReadCtx(ctx, r)
		if err == nil {
			h, err = mmio.ToHypergraph(m)
		}
	default:
		return fmt.Errorf("unknown input format %q", *from)
	}
	if err != nil {
		return err
	}

	if *to == "store" {
		if *out == "" {
			return fmt.Errorf("-to store needs -o FILE (the store is written with fsync-and-rename, not streamed)")
		}
		if err := store.WriteHCtx(ctx, *out, h); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "hgconvert: %s → store: |V|=%d |F|=%d |E|=%d\n",
			*from, h.NumVertices(), h.NumEdges(), h.NumPins())
		return nil
	}

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	switch *to {
	case "text":
		err = hypergraph.WriteText(w, h)
	case "json":
		var data []byte
		data, err = h.MarshalJSON()
		if err == nil {
			_, err = w.Write(append(data, '\n'))
		}
	case "mtx":
		err = mmio.Write(w, mmio.FromHypergraph(h))
	case "pajek":
		err = pajek.WriteNet(w, h, nil, nil)
	default:
		return fmt.Errorf("unknown output format %q", *to)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "hgconvert: %s → %s: |V|=%d |F|=%d |E|=%d\n",
		*from, *to, h.NumVertices(), h.NumEdges(), h.NumPins())
	return nil
}
