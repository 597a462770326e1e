// Humanscale exercises the library at the scale the paper's conclusion
// anticipates — proteome-wide studies far larger than the 2002 yeast
// screen — generating a synthetic 20000-protein complex network and
// running the full analysis pipeline: statistics, the maximum core,
// and bait selection.
//
// Pass -short for a 5000-protein run.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"hyperplex"
	"hyperplex/internal/dataset"
)

func main() {
	log.SetFlags(0)
	short := flag.Bool("short", false, "use a 5000-protein instance")
	flag.Parse()

	nP, nC := 20000, 3000
	if *short {
		nP, nC = 5000, 800
	}
	start := time.Now()
	h := dataset.SyntheticProteome(nP, nC, 0x42A1)
	fmt.Printf("generated %v in %.2fs\n", h, time.Since(start).Seconds())

	// Degree structure.
	fit, err := hyperplex.FitPowerLaw(hyperplex.DegreeHistogram(h.VertexDegrees()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("protein degrees: %v\n", fit)

	_, _, comps := hyperplex.Components(h)
	fmt.Printf("components: %d (largest %d proteins / %d complexes)\n",
		len(comps), comps[0].Vertices, comps[0].Edges)

	// Core decomposition.
	start = time.Now()
	mc := hyperplex.MaxCore(h)
	fmt.Printf("maximum core: %d-core, %d proteins / %d complexes in %.2fs\n",
		mc.K, mc.NumVertices, mc.NumEdges, time.Since(start).Seconds())

	// Exact small-world metrics: all-pairs distances, 64 sources per sweep.
	start = time.Now()
	sw := hyperplex.SmallWorldStats(h, runtime.NumCPU())
	fmt.Printf("exact small-world: diameter %d, avg path %.3f (%.2fs from all %d sources)\n",
		sw.Diameter, sw.AvgPathLength, time.Since(start).Seconds(), sw.Sources)

	// Bait selection at scale.
	start = time.Now()
	c, err := hyperplex.GreedyCover(h, hyperplex.DegreeSquaredWeights(h))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("weighted bait cover: %d baits (avg degree %.2f) in %.2fs\n",
		c.Size(), c.AverageDegree(h), time.Since(start).Seconds())
}
