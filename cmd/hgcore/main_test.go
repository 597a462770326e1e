package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyperplex/internal/check"
	"hyperplex/internal/core"
	"hyperplex/internal/dataset"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/store"
)

// planted has a 3-core {a,b,c,d} plus pendants.
const planted = "e1: a b c\ne2: a b d\ne3: a c d\ne4: b c d\np1: a x\np2: x y\n"

func TestRunMaxCore(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(planted), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "3-core: 4 vertices, 4 hyperedges") {
		t.Errorf("unexpected output:\n%s", got)
	}
	if !strings.Contains(got, "vertex a") || !strings.Contains(got, "hyperedge e4") {
		t.Errorf("member listing missing:\n%s", got)
	}
}

func TestRunExplicitK(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-k", "2", "-quiet"}, strings.NewReader(planted), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2-core:") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	var seq, par bytes.Buffer
	if err := run([]string{"-k", "3", "-quiet"}, strings.NewReader(planted), &seq); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-k", "3", "-parallel", "2", "-quiet"}, strings.NewReader(planted), &par); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("sequential %q vs parallel %q", seq.String(), par.String())
	}
}

func TestRunShardedMatchesSequential(t *testing.T) {
	for _, mode := range [][]string{
		{"-max", "-quiet"},
		{"-decompose"},
	} {
		var seq, sharded bytes.Buffer
		if err := run(mode, strings.NewReader(planted), &seq); err != nil {
			t.Fatal(err)
		}
		if err := run(append([]string{"-shards", "3"}, mode...), strings.NewReader(planted), &sharded); err != nil {
			t.Fatal(err)
		}
		if seq.String() != sharded.String() {
			t.Errorf("%v: sequential %q vs sharded %q", mode, seq.String(), sharded.String())
		}
	}
}

// TestRunMatchesOverlapOracle pins the printed cores of -max, -k 2 and
// -k 2 -l 3 to the paper's overlap-count peel (check.OverlapCore) on
// the planted instance and Cellzome: the same header, the same vertex
// lines, and hyperedge lines naming the same family of member sets
// (the oracle may keep another copy of an equal-set family).
func TestRunMatchesOverlapOracle(t *testing.T) {
	var cellzome bytes.Buffer
	if err := hypergraph.WriteText(&cellzome, dataset.Cellzome().H); err != nil {
		t.Fatal(err)
	}
	for name, text := range map[string]string{"planted": planted, "Cellzome": cellzome.String()} {
		// The hypergraph as hgcore reads it: the text reader numbers
		// vertices by first encounter.
		h, err := hypergraph.ReadText(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			args []string
			want *core.Result
		}{
			{[]string{"-max"}, check.OverlapCore(h, check.OverlapDecompose(h).MaxK, 1)},
			{[]string{"-k", "2"}, check.OverlapCore(h, 2, 1)},
			{[]string{"-k", "2", "-l", "3"}, check.OverlapCore(h, 2, 3)},
		} {
			var out bytes.Buffer
			if err := run(tc.args, strings.NewReader(text), &out); err != nil {
				t.Fatalf("%s %v: %v", name, tc.args, err)
			}
			got := parseReport(t, h, out.String())
			if got.K != tc.want.K {
				t.Errorf("%s %v: printed the %d-core, oracle the %d-core", name, tc.args, got.K, tc.want.K)
			}
			if err := check.SameResult(h, got, tc.want); err != nil {
				t.Errorf("%s %v: printed core vs the overlap peel: %v", name, tc.args, err)
			}
		}
	}
}

// parseReport reads a core listing back into a Result over h's IDs,
// checking the header's counts against the listed lines.
func parseReport(t *testing.T, h *hypergraph.Hypergraph, out string) *core.Result {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	r := &core.Result{VertexIn: make([]bool, h.NumVertices()), EdgeIn: make([]bool, h.NumEdges())}
	var nv, ne int
	if _, err := fmt.Sscanf(lines[0], "%d-core: %d vertices, %d hyperedges", &r.K, &nv, &ne); err != nil {
		t.Fatalf("header %q: %v", lines[0], err)
	}
	for _, line := range lines[1:] {
		if name, ok := strings.CutPrefix(line, "vertex "); ok {
			v, found := h.VertexID(name)
			if !found || r.VertexIn[v] {
				t.Fatalf("vertex line %q names no new vertex", line)
			}
			r.VertexIn[v] = true
			r.NumVertices++
		} else if name, ok := strings.CutPrefix(line, "hyperedge "); ok {
			f, found := h.EdgeID(name)
			if !found || r.EdgeIn[f] {
				t.Fatalf("hyperedge line %q names no new hyperedge", line)
			}
			r.EdgeIn[f] = true
			r.NumEdges++
		} else {
			t.Fatalf("unexpected line %q", line)
		}
	}
	if r.NumVertices != nv || r.NumEdges != ne {
		t.Fatalf("header says %d/%d, listing has %d/%d", nv, ne, r.NumVertices, r.NumEdges)
	}
	return r
}

// TestRunMtxMirrorOutOfRange pins the typed error for a symmetric
// Matrix Market entry whose mirror lies outside the size line.
func TestRunMtxMirrorOutOfRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mirror.mtx")
	if err := os.WriteFile(path, []byte("%%MatrixMarket matrix coordinate pattern symmetric\n7 2 1\n7 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-max", "-mtx", path}, nil, &out); err == nil || !strings.Contains(err.Error(), `mmio: entry 1 out of range: "7 1"`) {
		t.Errorf("got %v, want the out-of-range entry error", err)
	}
}

func TestRunBiCoreFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-k", "2", "-l", "3", "-quiet"}, strings.NewReader(planted), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2-core: 4 vertices") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunDecompose(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-decompose"}, strings.NewReader(planted), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "maximum core: 3") {
		t.Errorf("output:\n%s", got)
	}
	if !strings.Contains(got, "a\t3") || !strings.Contains(got, "y\t1") {
		t.Errorf("coreness listing missing:\n%s", got)
	}
	if !strings.Contains(got, "3-core: 4 vertices, 4 hyperedges") {
		t.Errorf("profile missing:\n%s", got)
	}
}

func TestRunPajekOutput(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "core")
	var out bytes.Buffer
	if err := run([]string{"-quiet", "-pajek", prefix}, strings.NewReader(planted), &out); err != nil {
		t.Fatal(err)
	}
	net, err := os.ReadFile(prefix + ".net")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(net), "*Edges") {
		t.Error(".net missing edges section")
	}
	if _, err := os.Stat(prefix + ".clu"); err != nil {
		t.Error(".clu missing")
	}
}

func TestRunBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader("garbage without colon"), &out); err == nil {
		t.Error("bad input accepted")
	}
}

// TestRunDistMatchesSequential pins the -dist route (coordinator plus
// an in-process worker pool over loopback TCP) to the sequential
// output byte for byte, with and without -local-fallback.
func TestRunDistMatchesSequential(t *testing.T) {
	for _, mode := range [][]string{
		{"-max", "-quiet"},
		{"-decompose", "-quiet"},
	} {
		var seq, dist bytes.Buffer
		if err := run(mode, strings.NewReader(planted), &seq); err != nil {
			t.Fatal(err)
		}
		if err := run(append([]string{"-dist", "2", "-shards", "3", "-local-fallback"}, mode...), strings.NewReader(planted), &dist); err != nil {
			t.Fatal(err)
		}
		if seq.String() != dist.String() {
			t.Errorf("%v: sequential %q vs dist %q", mode, seq.String(), dist.String())
		}
	}
}

// TestRunStoreMatchesText pins the -store route byte for byte against
// the text route, member listings included, on the calibrated Cellzome
// instance — the ISSUE's out-of-core smoke: text → store file →
// memory-mapped decomposition must be indistinguishable from the
// all-in-RAM run.
func TestRunStoreMatchesText(t *testing.T) {
	dir := t.TempDir()
	h := dataset.Cellzome().H
	textPath := filepath.Join(dir, "cellzome.txt")
	tf, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := hypergraph.WriteText(tf, h); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	// Build the store from the text file with the streaming builder, so
	// both routes see the same first-encounter vertex numbering (the
	// original instance's insertion order is not recoverable from text).
	storePath := filepath.Join(dir, "cellzome.store")
	if err := store.BuildFile(storePath, store.FileSource("text", textPath)); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{
		{"-max"},
		{"-decompose"},
		{"-k", "4"},
	} {
		var text, mapped bytes.Buffer
		if err := run(append(append([]string{}, mode...), textPath), nil, &text); err != nil {
			t.Fatal(err)
		}
		if err := run(append(append([]string{}, mode...), "-store", storePath), nil, &mapped); err != nil {
			t.Fatal(err)
		}
		if text.String() != mapped.String() {
			t.Errorf("%v: text and -store outputs differ", mode)
		}
	}
}

func TestRunStoreBadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.store")
	if err := os.WriteFile(path, []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-store", path}, nil, &out); err == nil {
		t.Error("junk store file accepted")
	}
}
