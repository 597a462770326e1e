package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"hyperplex/internal/core"
	"hyperplex/internal/dataset"
)

var update = flag.Bool("update", false, "rewrite the golden experiments output")

// goldenIDs is the deterministic subset of the experiment registry
// behind the paper's numbers: everything except the TAP screens and
// the predicted complexes (X1, X6, X7, pinned in extensionIDs), the
// human-scale run whose small-world numbers stats pins on its own
// (X5), time-dependent scaling runs (T1, X3) or write artifact files
// whose content is covered elsewhere (F3).
var goldenIDs = []string{"F1", "F2", "S2", "S3", "S4", "X2"}

// timingRe erases wall-clock measurements so the pinned output only
// contains machine-independent numbers.
var timingRe = regexp.MustCompile(`\d+\.\d+s`)

// extensionIDs are the extension experiments that print no timings
// and give the same bytes at any GOMAXPROCS: the TAP screens (X1 at
// the golden trials, X7) and the overlap of predicted complexes (X6).
// They sit outside the paper, so they have a golden file of their own.
var extensionIDs = []string{"X1", "X6", "X7"}

// TestGoldenPaperNumbers pins the full output of the deterministic
// experiments, so any drift in the reproduced paper numbers (degree
// power law, small-world statistics, maximum core, cover sizes) fails
// loudly with a diff instead of rotting silently.  Run with -update to
// accept intentional changes.
func TestGoldenPaperNumbers(t *testing.T) {
	got := checkGolden(t, goldenIDs, "golden_paper.txt")

	// Belt and braces: the paper's headline numbers must appear verbatim
	// even if the golden file is regenerated carelessly.
	for _, must := range []string{
		"gamma = 2.528",
		"R² = 0.963",
		"2.568",
		"diameter",
		"6-core with 41 proteins and 54 complexes",
		"109 @ 3.7",
		"233 @ 1.14",
		"558 @ 1.74",
	} {
		if !strings.Contains(got, must) {
			t.Errorf("output lost the paper constant %q", must)
		}
	}
}

// TestGoldenExtensions pins the output of the extension experiments
// in extensionIDs, so a change to the TAP simulation or to the scoring
// of predicted complexes that moves a number fails with a diff.  It
// shares -update with TestGoldenPaperNumbers.
func TestGoldenExtensions(t *testing.T) {
	checkGolden(t, extensionIDs, "golden_extensions.txt")
}

// checkGolden runs the experiments ids at the golden options, compares
// their output, timings normalized, with testdata/name and returns it.
// With -update it rewrites the file first.
func checkGolden(t *testing.T, ids []string, name string) string {
	t.Helper()
	var buf bytes.Buffer
	o := options{short: false, outDir: t.TempDir(), trials: 5}
	for _, id := range ids {
		found := false
		for _, e := range allExperiments {
			if e.id != id {
				continue
			}
			found = true
			fmt.Fprintf(&buf, "==== %s: %s ====\n", e.id, e.title)
			if err := e.run(&buf, o); err != nil {
				t.Fatalf("%s: %v", e.id, err)
			}
			fmt.Fprintln(&buf)
		}
		if !found {
			t.Fatalf("golden experiment %s not in registry", id)
		}
	}
	got := timingRe.ReplaceAllString(buf.String(), "<time>")

	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("experiments output drifted from %s (run with -update to accept):\n%s",
			path, firstDiff(string(want), got))
	}
	return got
}

// TestGoldenShardedMatchesSequential pins that the sharded engine
// finds the paper's core proteome: on the Cellzome hypergraph S3
// reads, its maximum core at 1, 3 and 16 shards is the one
// core.MaxCore gives and S3 prints, the 6-core with 41 proteins and 54
// complexes.
func TestGoldenShardedMatchesSequential(t *testing.T) {
	h := dataset.Cellzome().H
	want := core.MaxCore(h)
	if want.K != 6 || want.NumVertices != 41 || want.NumEdges != 54 {
		t.Fatalf("MaxCore gives a %d-core with %d proteins and %d complexes, want the paper's 6-core with 41 and 54", want.K, want.NumVertices, want.NumEdges)
	}
	for _, shards := range []int{1, 3, 16} {
		d := core.ShardedDecompose(h, core.ShardedOptions{Shards: shards})
		got := d.Core(d.MaxK)
		if got.K != want.K || !slices.Equal(got.VertexIn, want.VertexIn) || !slices.Equal(got.EdgeIn, want.EdgeIn) {
			t.Errorf("the sharded engine at %d shards gives a %d-core with %d proteins and %d complexes, MaxCore the paper's", shards, got.K, got.NumVertices, got.NumEdges)
		}
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n-%s\n+%s", i+1, w, g)
		}
	}
	return "(texts equal)"
}
