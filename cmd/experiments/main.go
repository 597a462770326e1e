// Command experiments reproduces every table and figure of Ramadan,
// Tarafdar & Pothen (IPPS 2004) on the synthetic calibrated datasets
// and prints paper-vs-measured rows.  EXPERIMENTS.md is generated from
// this tool's output.
//
// Usage:
//
//	experiments [-run F1,T1,S2,...|all] [-short] [-out DIR] [-trials N]
//
// Experiment IDs: F1 F2 F3 T1 S2 S3 S4 X1 X2 X3 X4 (see DESIGN.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hyperplex/internal/cli"
)

func main() {
	runFlag := flag.String("run", "all", "comma-separated experiment IDs (F1,F2,F3,T1,S2,S3,S4,X1,X2,X3,X4) or 'all'")
	short := flag.Bool("short", false, "shrink the Table 1 matrices and trial counts for a quick run")
	outDir := flag.String("out", ".", "directory for generated artifacts (fig3.net, fig3.clu)")
	trials := flag.Int("trials", 100, "TAP simulation trials for X1")
	shards := flag.Int("shards", 0, "compute maximum cores with the sharded engine on this many shards (0 = sequential peeler)")
	distW := flag.Int("dist", 0, "compute maximum cores on a fault-tolerant distributed pool of this many workers (0 = in-process)")
	storeDir := flag.String("store", "", "round every maximum-core input through a memory-mapped store file in this directory (out-of-core mode)")
	timeout := flag.Duration("timeout", 0, "stop starting new experiments after this duration (0 = no limit)")
	flag.Parse()
	ctx, cancel := cli.WithTimeout(context.Background(), *timeout)
	defer cancel()

	wanted := map[string]bool{}
	if *runFlag == "all" {
		for _, id := range allExperiments {
			wanted[id.id] = true
		}
	} else {
		for _, s := range strings.Split(*runFlag, ",") {
			wanted[strings.ToUpper(strings.TrimSpace(s))] = true
		}
	}

	opts := options{short: *short, outDir: *outDir, trials: *trials, shards: *shards, dist: *distW, store: *storeDir}
	if *short && *trials > 20 {
		opts.trials = 20
	}
	failed := false
	for _, e := range allExperiments {
		if !wanted[e.id] {
			continue
		}
		// The deadline is coarse: it stops starting new experiments
		// rather than interrupting one mid-flight.
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: not run: %v\n", e.id, err)
			failed = true
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.title)
		if err := runExperiment(e, os.Stdout, opts); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			failed = true
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}

// runExperiment runs one experiment with a panic boundary, so a fault
// in one experiment reports as its failure instead of killing the
// whole sweep.
func runExperiment(e experiment, w io.Writer, o options) (err error) {
	defer cli.RecoverPanic(&err)
	return e.run(w, o)
}

type options struct {
	short  bool
	outDir string
	trials int
	// shards > 0 routes maximum-core computations through the sharded
	// decomposition engine; 0 keeps the sequential peeler.
	shards int
	// dist > 0 routes maximum-core computations through the
	// fault-tolerant distributed runtime with this many workers
	// (local fallback enabled, so a pool collapse degrades rather
	// than fails).
	dist int
	// store, when non-empty, names a directory: every maximum-core
	// input is first written to a store file there and re-read through
	// the memory-mapped backend, so the peel runs over the on-disk
	// arrays (out-of-core mode).  The cores are identical either way.
	store string
}

type experiment struct {
	id    string
	title string
	run   func(w io.Writer, o options) error
}

var allExperiments = []experiment{
	{"F1", "Fig. 1 — protein degree power law", runF1},
	{"F2", "Fig. 2 — k-core of a graph", runF2},
	{"F3", "Fig. 3 — Pajek export of the hypergraph and its maximum core", runF3},
	{"T1", "Table 1 — hypergraph statistics and maximum cores", runT1},
	{"S2", "§2 — components and small-world statistics", runS2},
	{"S3", "§3 — core proteome and DIP graph cores", runS3},
	{"S4", "§4.2 — vertex covers for bait selection", runS4},
	{"X1", "X1 — TAP reliability: cover vs multicover (extension)", runX1},
	{"X2", "X2 — primal-dual vs greedy covers (extension)", runX2},
	{"X3", "X3 — parallel k-core scaling (extension)", runX3},
	{"X4", "X4 — model comparison: storage and clustering (extension)", runX4},
	{"X5", "X5 — human-proteome-scale core computation (extension)", runX5},
	{"X6", "X6 — complex prediction from graph cores vs the hypergraph (§3 warning)", runX6},
	{"X7", "X7 — cross-organism bait transfer (§4 second scenario)", runX7},
}
