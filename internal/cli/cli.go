// Package cli holds the small helpers shared by the command-line
// tools in cmd/: the format table every command reads and writes
// hypergraphs through (Read, Write), file-or-stdio resolution (Create)
// and name formatting.  Keeping them here lets every command's run
// function be a pure function of (args, stdin, stdout), which the
// command tests exercise directly.
package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/pajek"
	"hyperplex/internal/store"
)

// ErrStoreOutput reports a store output without a file to write.
var ErrStoreOutput = errors.New("store output needs -o FILE (the store is written with fsync-and-rename, not streamed)")

// Read reads a hypergraph in format — text, json, mtx or store — from
// the file at path, or from stdin when path is empty.  A store is
// memory-mapped, so it needs a path, and its hypergraph aliases the
// mapped arrays: the caller calls release once it is done with the
// hypergraph, which closes the mapping.  For the other formats release
// does nothing.  release is nil when err is not.
func Read(ctx context.Context, format, path string, stdin io.Reader) (h *hypergraph.Hypergraph, release func() error, err error) {
	if format == "store" {
		if path == "" {
			return nil, nil, errors.New("-from store needs an input file path (the store is memory-mapped, not streamed)")
		}
		st, h, err := OpenStoreCtx(ctx, path)
		if err != nil {
			return nil, nil, err
		}
		return h, st.Close, nil
	}
	r := stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		r = f
	}
	switch format {
	case "text":
		h, err = hypergraph.ReadTextCtx(ctx, r)
	case "json":
		var data []byte
		if data, err = io.ReadAll(r); err == nil {
			h, err = hypergraph.UnmarshalJSONHypergraph(data)
		}
	case "mtx":
		var m *mmio.Matrix
		if m, err = mmio.ReadCtx(ctx, r); err == nil {
			h, err = mmio.ToHypergraph(m)
		}
	default:
		return nil, nil, fmt.Errorf("unknown input format %q", format)
	}
	if err != nil {
		return nil, nil, err
	}
	return h, func() error { return nil }, nil
}

// Write writes h in format — text, json, mtx, pajek or store — to the
// file at path, or to stdout when path is empty.  It checks the format
// before it creates anything, so an unknown one leaves an existing
// file as it was.  A store is written with fsync-and-rename and needs
// a path.
func Write(ctx context.Context, format, path string, stdout io.Writer, h *hypergraph.Hypergraph) error {
	var write func(io.Writer) error
	switch format {
	case "text":
		write = func(w io.Writer) error { return hypergraph.WriteText(w, h) }
	case "json":
		write = func(w io.Writer) error {
			data, err := h.MarshalJSON()
			if err != nil {
				return err
			}
			_, err = w.Write(append(data, '\n'))
			return err
		}
	case "mtx":
		write = func(w io.Writer) error { return mmio.Write(w, mmio.FromHypergraph(h)) }
	case "pajek":
		write = func(w io.Writer) error { return pajek.WriteNet(w, h, nil, nil) }
	case "store":
		if path == "" {
			return ErrStoreOutput
		}
		return store.WriteHCtx(ctx, path, h)
	default:
		return fmt.Errorf("unknown output format %q", format)
	}
	return Create(path, stdout, write)
}

// Create runs write on the file at path, created or truncated, or on
// stdout when path is empty, and returns the first error of the write
// and the file's close.
func Create(path string, stdout io.Writer, write func(io.Writer) error) (err error) {
	if path == "" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f)
}

// ReadHypergraph loads a hypergraph from path (or stdin when path is
// empty), in the native text format or — when mtx is true — as a
// Matrix Market file whose columns become hyperedges.
func ReadHypergraph(mtx bool, path string, stdin io.Reader) (*hypergraph.Hypergraph, error) {
	return ReadHypergraphCtx(context.Background(), mtx, path, stdin)
}

// ReadHypergraphCtx is ReadHypergraph honoring cancellation, deadline
// and any run.Budget attached to ctx (forwarded to the underlying
// format readers).
func ReadHypergraphCtx(ctx context.Context, mtx bool, path string, stdin io.Reader) (*hypergraph.Hypergraph, error) {
	h, _, err := Read(ctx, inputFormat(mtx), path, stdin)
	return h, err
}

// inputFormat names the format of a command's [file] argument.
func inputFormat(mtx bool) string {
	if mtx {
		return "mtx"
	}
	return "text"
}

// OpenStore opens a binary store file and returns both the backend and
// its hypergraph view.  The view aliases the store's (possibly memory-
// mapped) arrays: the caller must keep the backend open while the
// hypergraph is in use and Close it afterwards.
func OpenStore(path string) (*store.File, *hypergraph.Hypergraph, error) {
	return OpenStoreCtx(context.Background(), path)
}

// OpenStoreCtx is OpenStore honoring cancellation, deadline and any
// run.Budget attached to ctx.  It is Read's store format.
func OpenStoreCtx(ctx context.Context, path string) (*store.File, *hypergraph.Hypergraph, error) {
	st, err := store.OpenCtx(ctx, path)
	if err != nil {
		return nil, nil, err
	}
	h, err := st.H()
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, h, nil
}

// OpenInput opens the hypergraph a command reads: the store file at
// storePath when one is given, else the text or, with mtx, Matrix
// Market hypergraph at path or on stdin.  release is Read's.
func OpenInput(ctx context.Context, storePath string, mtx bool, path string, stdin io.Reader) (h *hypergraph.Hypergraph, release func() error, err error) {
	if storePath != "" {
		return Read(ctx, "store", storePath, nil)
	}
	return Read(ctx, inputFormat(mtx), path, stdin)
}

// WithTimeout returns ctx bounded by the -timeout flag value: a zero
// or negative timeout means no bound (the cancel func is still
// non-nil and must be deferred).
func WithTimeout(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, timeout)
}

// RecoverPanic converts a panic in a command's run function into the
// error return, so an injected fault or latent bug reports cleanly
// instead of crashing with a stack trace.  Use as
//
//	defer cli.RecoverPanic(&err)
func RecoverPanic(err *error) {
	if x := recover(); x != nil {
		if e, ok := x.(error); ok {
			*err = fmt.Errorf("internal error: %w", e)
			return
		}
		*err = fmt.Errorf("internal error: panic: %v", x)
	}
}

// VertexLabel is h.VertexLabel(v), kept for the benchmark harness.
func VertexLabel(h *hypergraph.Hypergraph, v int) string { return h.VertexLabel(v) }

// EdgeLabel is h.EdgeLabel(f), kept for the benchmark harness.
func EdgeLabel(h *hypergraph.Hypergraph, f int) string { return h.EdgeLabel(f) }
