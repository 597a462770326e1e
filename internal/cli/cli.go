// Package cli holds the small helpers shared by the command-line
// tools in cmd/: input resolution (file vs stdin, text vs Matrix
// Market) and name formatting.  Keeping them here lets every command's
// run function be a pure function of (args, stdin, stdout), which the
// command tests exercise directly.
package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/store"
)

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
	var r io.Reader = stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	if mtx {
		m, err := mmio.ReadCtx(ctx, r)
		if err != nil {
			return nil, err
		}
		return mmio.ToHypergraph(m)
	}
	return hypergraph.ReadTextCtx(ctx, r)
}

// OpenStore opens a binary store file and returns both the backend and
// its hypergraph view.  The view aliases the store's (possibly memory-
// mapped) arrays: the caller must keep the backend open while the
// hypergraph is in use and Close it afterwards.
func OpenStore(path string) (*store.File, *hypergraph.Hypergraph, error) {
	return OpenStoreCtx(context.Background(), path)
}

// OpenStoreCtx is OpenStore honoring cancellation, deadline and any
// run.Budget attached to ctx.
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
// storePath when one is given, else what ReadHypergraphCtx reads from
// path or stdin.  A store's hypergraph aliases its mapped arrays, so
// the caller calls release once it is done with the hypergraph; for a
// hypergraph read into memory release does nothing.
func OpenInput(ctx context.Context, storePath string, mtx bool, path string, stdin io.Reader) (h *hypergraph.Hypergraph, release func() error, err error) {
	if storePath == "" {
		h, err = ReadHypergraphCtx(ctx, mtx, path, stdin)
		return h, func() error { return nil }, err
	}
	st, h, err := OpenStoreCtx(ctx, storePath)
	if err != nil {
		return nil, nil, err
	}
	return h, st.Close, nil
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
