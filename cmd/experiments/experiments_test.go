package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestAllExperimentsShort drives every experiment at -short scale and
// checks the paper-vs-measured markers appear.
func TestAllExperimentsShort(t *testing.T) {
	checks := map[string][]string{
		"F1": {"fit:", "paper:", "gamma"},
		"F2": {"maximum core: 3-core"},
		"F3": {"core highlight: 41 proteins (red), 54 complexes (green)"},
		"T1": {"Cellzome", "bfw398a", "max core"},
		"S2": {"connected components", "33", "diameter", "power law satisfied", "complex degrees"},
		"S3": {"6-core with 41 proteins and 54 complexes", "DIP yeast", "k = 10 with 33"},
		"S4": {"greedy min-cardinality cover", "2-multicover", "459"},
		"X1": {"2-multicover (r=2)", "reliability multicover", "mean recov"},
		"X2": {"greedy weight", "dual LB", "H_m"},
		"X3": {"sequential:", "parallel", "[OK]"},
		"X4": {"clique-expansion edges", "clustering coefficient"},
		"X5": {"synthetic human-scale proteome", "maximum core"},
		"X6": {"clique-expansion PPI graph", "hypergraph 6-core hyperedges"},
		"X7": {"projected-cover baits", "random baits"},
	}
	o := options{short: true, outDir: t.TempDir(), trials: 5}
	for _, e := range allExperiments {
		e := e
		t.Run(e.id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.run(&buf, o); err != nil {
				t.Fatalf("%s: %v", e.id, err)
			}
			out := buf.String()
			for _, want := range checks[e.id] {
				if !strings.Contains(out, want) {
					t.Errorf("%s output missing %q:\n%s", e.id, want, out)
				}
			}
		})
	}
	if len(checks) != len(allExperiments) {
		t.Errorf("checks cover %d experiments, registry has %d", len(checks), len(allExperiments))
	}
}

// TestStoreOptionMatches runs a maximum-core experiment in out-of-core
// mode (-store DIR routes the input through a memory-mapped store
// file) and checks the cores come out identical to the in-RAM run.
func TestStoreOptionMatches(t *testing.T) {
	o := options{short: true, outDir: t.TempDir(), trials: 5, store: t.TempDir()}
	var buf bytes.Buffer
	if err := runS3(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "6-core with 41 proteins and 54 complexes") {
		t.Errorf("out-of-core S3 lost the paper core:\n%s", buf.String())
	}
	// The store directory must not accumulate files: each round-trip
	// cleans up after itself.
	entries, err := os.ReadDir(o.store)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("store directory littered: %v", entries)
	}
}
