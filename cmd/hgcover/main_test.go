package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hyperplex/internal/cover"
	"hyperplex/internal/dataset"
	"hyperplex/internal/failpoint"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/store"
	"hyperplex/internal/xrand"
)

const sample = "c1: hub a\nc2: hub b\nc3: hub c\n"

func TestRunUnweighted(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "cover: 1 vertices") {
		t.Errorf("output:\n%s", got)
	}
	if !strings.Contains(got, "hub") {
		t.Errorf("hub not listed:\n%s", got)
	}
}

func TestRunDegree2Weights(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-weights", "degree2", "-quiet"}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cover: 3 vertices") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunMulticover(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-r", "2", "-quiet"}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	// Each pair needs both members: 4 vertices.
	if !strings.Contains(out.String(), "cover: 4 vertices") {
		t.Errorf("output:\n%s", out.String())
	}
}

// TestRunMatchesMapKernel pins hgcover's printed multicover, member
// listing included, byte for byte to a listing built from the map-based
// reference kernel cover.GreedyMulticover, on the sample and Cellzome.
func TestRunMatchesMapKernel(t *testing.T) {
	var cellzome bytes.Buffer
	if err := hypergraph.WriteText(&cellzome, dataset.Cellzome().H); err != nil {
		t.Fatal(err)
	}
	for name, text := range map[string]string{"sample": sample, "Cellzome": cellzome.String()} {
		h, err := hypergraph.ReadText(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		req := cover.UniformRequirement(h, 2)
		skipped := 0
		for f := range req {
			if h.EdgeDegree(f) < req[f] {
				req[f] = 0
				skipped++
			}
		}
		c, err := cover.GreedyMulticover(h, cover.DegreeSquaredWeights(h), req)
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		fmt.Fprintf(&want, "cover: %d vertices, weight %.2f, average degree %.2f", c.Size(), c.Weight, c.AverageDegree(h))
		if skipped > 0 {
			fmt.Fprintf(&want, " (%d hyperedges skipped)", skipped)
		}
		fmt.Fprintln(&want)
		for _, v := range c.Vertices {
			fmt.Fprintln(&want, h.VertexLabel(v))
		}

		var got bytes.Buffer
		if err := run([]string{"-weights", "degree2", "-r", "2", "-skip-singletons"}, strings.NewReader(text), &got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: hgcover prints\n%s\nthe map kernel's cover is\n%s", name, got.String(), want.String())
		}
	}
}

func TestRunMulticoverInfeasibleAndSkip(t *testing.T) {
	in := "single: z\npair: a b\n"
	var out bytes.Buffer
	if err := run([]string{"-r", "2", "-quiet"}, strings.NewReader(in), &out); err == nil {
		t.Error("infeasible multicover accepted")
	}
	out.Reset()
	if err := run([]string{"-r", "2", "-skip-singletons", "-quiet"}, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 hyperedges skipped") {
		t.Errorf("skip note missing:\n%s", out.String())
	}
}

func TestRunReliabilityRequirements(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-reliability", "0.7,0.95", "-skip-singletons", "-quiet"}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	// r = 3 capped at size 2: both members of every pair → 4 vertices.
	if !strings.Contains(out.String(), "cover: 4 vertices") {
		t.Errorf("output:\n%s", out.String())
	}
	if err := run([]string{"-reliability", "nonsense"}, strings.NewReader(sample), &out); err == nil {
		t.Error("bad -reliability accepted")
	}
	if err := run([]string{"-reliability", "2,0.5"}, strings.NewReader(sample), &out); err == nil {
		t.Error("out-of-range p accepted")
	}
}

func TestRunPrimalDualAndExact(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-primal-dual", "-quiet"}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dual lower bound") {
		t.Errorf("certificate missing:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-exact", "-quiet"}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cover: 1 vertices, weight 1.00") {
		t.Errorf("exact output:\n%s", out.String())
	}
	// Mode restrictions.
	if err := run([]string{"-primal-dual", "-r", "2"}, strings.NewReader(sample), &out); err == nil {
		t.Error("-primal-dual with -r 2 accepted")
	}
	if err := run([]string{"-exact", "-r", "2"}, strings.NewReader(sample), &out); err == nil {
		t.Error("-exact with -r 2 accepted")
	}
}

// TestRunPrimalDualTimeout pins that -timeout bounds the primal-dual
// solve, not only the read: with every scan checkpoint slowed to
// 300 ms, a 100 ms bound must end the Cellzome run with
// context.DeadlineExceeded instead of a cover.
func TestRunPrimalDualTimeout(t *testing.T) {
	var cellzome bytes.Buffer
	if err := hypergraph.WriteText(&cellzome, dataset.Cellzome().H); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("cover.primaldual.scan", failpoint.Arm{Mode: failpoint.ModeDelay, Delay: 300 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("cover.primaldual.scan")
	var out bytes.Buffer
	if err := run([]string{"-primal-dual", "-quiet", "-timeout", "100ms"}, &cellzome, &out); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, output %q; want context.DeadlineExceeded", err, out.String())
	}
}

// TestRunExactTimeout pins that -timeout bounds the exact search: on a
// random instance of 120 proteins and 200 complexes of up to 4 members,
// whose search runs into its node cap after far longer than 20 ms, a
// 20 ms bound must end the run with context.DeadlineExceeded.
func TestRunExactTimeout(t *testing.T) {
	var in bytes.Buffer
	if err := hypergraph.WriteText(&in, gen.RandomHypergraph(120, 200, 4, xrand.New(7))); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-exact", "-quiet", "-timeout", "20ms"}, &in, &out); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, output %q; want context.DeadlineExceeded", err, out.String())
	}
}

func TestRunBadWeightScheme(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-weights", "zipf"}, strings.NewReader(sample), &out); err == nil {
		t.Error("unknown weight scheme accepted")
	}
}

func TestRunWeightFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.txt")
	// Make the hub prohibitively expensive.
	if err := os.WriteFile(path, []byte("# preferences\nhub 100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-weights", "file:" + path, "-quiet"}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cover: 3 vertices, weight 3.00") {
		t.Errorf("output:\n%s", out.String())
	}
	// Error paths.
	if err := os.WriteFile(path, []byte("ghost 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-weights", "file:" + path}, strings.NewReader(sample), &out); err == nil {
		t.Error("unknown protein in weight file accepted")
	}
	if err := os.WriteFile(path, []byte("hub -1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-weights", "file:" + path}, strings.NewReader(sample), &out); err == nil {
		t.Error("negative weight accepted")
	}
	if err := run([]string{"-weights", "file:/does/not/exist"}, strings.NewReader(sample), &out); err == nil {
		t.Error("missing weight file accepted")
	}
}

// TestRunWeightFileLabels keys one weights file by the labels of a
// Matrix Market file's unnamed vertices and requires the -mtx route and
// the -store route over the file's store build to apply it alike.
func TestRunWeightFileLabels(t *testing.T) {
	dir := t.TempDir()
	mtxPath := filepath.Join(dir, "m.mtx")
	// Rows are the vertices v0…v3, columns the hyperedges; v0 is in
	// all three, so only the weights keep it out of the cover.
	mtx := "%%MatrixMarket matrix coordinate pattern general\n4 3 6\n1 1\n2 1\n1 2\n3 2\n1 3\n4 3\n"
	if err := os.WriteFile(mtxPath, []byte(mtx), 0o644); err != nil {
		t.Fatal(err)
	}
	storePath := filepath.Join(dir, "m.store")
	if err := store.BuildFile(storePath, store.FileSource("mtx", mtxPath)); err != nil {
		t.Fatal(err)
	}
	wPath := filepath.Join(dir, "w.txt")
	if err := os.WriteFile(wPath, []byte("v0 100\nv2 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var viaMTX, viaStore bytes.Buffer
	if err := run([]string{"-weights", "file:" + wPath, "-mtx", mtxPath}, nil, &viaMTX); err != nil {
		t.Fatalf("-mtx: %v", err)
	}
	if err := run([]string{"-weights", "file:" + wPath, "-store", storePath}, nil, &viaStore); err != nil {
		t.Fatalf("-store: %v", err)
	}
	if !strings.Contains(viaMTX.String(), "cover: 3 vertices, weight 7.00") {
		t.Errorf("-mtx output, want v1, v2 and v3 at weight 7:\n%s", viaMTX.String())
	}
	if viaMTX.String() != viaStore.String() {
		t.Errorf("-mtx %q vs -store %q", viaMTX.String(), viaStore.String())
	}
}

// TestRunStoreMatchesText pins the -store route byte for byte against
// the text route, including a 2-multicover.
func TestRunStoreMatchesText(t *testing.T) {
	dir := t.TempDir()
	textPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(textPath, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	storePath := filepath.Join(dir, "g.store")
	if err := store.BuildFile(storePath, store.FileSource("text", textPath)); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{
		nil,
		{"-r", "2"},
		{"-weights", "degree2"},
	} {
		var text, mapped bytes.Buffer
		if err := run(append(append([]string{}, mode...), textPath), nil, &text); err != nil {
			t.Fatal(err)
		}
		if err := run(append(append([]string{}, mode...), "-store", storePath), nil, &mapped); err != nil {
			t.Fatal(err)
		}
		if text.String() != mapped.String() {
			t.Errorf("%v: text %q vs store %q", mode, text.String(), mapped.String())
		}
	}
}

// errFull is the error shortWriter fails with.
var errFull = errors.New("no space left on device")

// shortWriter accepts n bytes and fails every write past them, as a
// stdout on a full disk does.
type shortWriter struct{ n int }

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestRunWriteErrors pins that hgcover fails when its output does: a
// stdout that fails at the first byte or only at the last one makes
// run return the write error instead of success.
func TestRunWriteErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-quiet"},
		{"-r", "2"},
		{"-primal-dual"},
	} {
		var full bytes.Buffer
		if err := run(args, strings.NewReader(sample), &full); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		for _, n := range []int{0, full.Len() - 1} {
			if err := run(args, strings.NewReader(sample), &shortWriter{n: n}); !errors.Is(err, errFull) {
				t.Errorf("%v, stdout failing after %d of %d bytes: err = %v, want %v", args, n, full.Len(), err, errFull)
			}
		}
	}
}
