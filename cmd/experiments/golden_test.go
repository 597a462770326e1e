package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden experiments output")

// goldenIDs is the deterministic subset of the experiment registry:
// everything except the experiments that sample trial noise (X1, X5),
// time-dependent scaling runs (T1, X3) or write artifact files whose
// content is covered elsewhere (F3).
var goldenIDs = []string{"F1", "F2", "S2", "S3", "S4", "X2"}

// timingRe erases wall-clock measurements so the pinned output only
// contains machine-independent numbers.
var timingRe = regexp.MustCompile(`\d+\.\d+s`)

// TestGoldenPaperNumbers pins the full output of the deterministic
// experiments, so any drift in the reproduced paper numbers (degree
// power law, small-world statistics, maximum core, cover sizes) fails
// loudly with a diff instead of rotting silently.  Run with -update to
// accept intentional changes.
func TestGoldenPaperNumbers(t *testing.T) {
	var buf bytes.Buffer
	o := options{short: false, outDir: t.TempDir(), trials: 5}
	for _, id := range goldenIDs {
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

	path := filepath.Join("testdata", "golden_paper.txt")
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

// TestGoldenShardedMatchesSequential pins that the sharded engine
// prints the identical paper numbers: the §3 core-proteome experiment
// run with -shards must produce byte-identical output (after erasing
// wall-clock timings) to the sequential run, including the headline
// "6-core with 41 proteins and 54 complexes".
func TestGoldenShardedMatchesSequential(t *testing.T) {
	runS3With := func(o options) string {
		var buf bytes.Buffer
		for _, e := range allExperiments {
			if e.id != "S3" {
				continue
			}
			if err := e.run(&buf, o); err != nil {
				t.Fatalf("S3 with %+v: %v", o, err)
			}
		}
		return timingRe.ReplaceAllString(buf.String(), "<time>")
	}
	seq := runS3With(options{outDir: t.TempDir()})
	if !strings.Contains(seq, "6-core with 41 proteins and 54 complexes") {
		t.Fatalf("sequential S3 lost the paper's core proteome:\n%s", seq)
	}
	for _, shards := range []int{1, 3, 16} {
		sharded := runS3With(options{outDir: t.TempDir(), shards: shards})
		if sharded != seq {
			t.Errorf("S3 output with shards=%d differs from sequential:\n%s", shards, firstDiff(seq, sharded))
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
