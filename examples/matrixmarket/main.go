// Matrixmarket runs the Table 1 pipeline on a sparse matrix: read (or
// synthesize) a Matrix Market file, view its columns as hyperedges
// over its rows, and compute the structural statistics and maximum
// core the paper reports for scientific-computing hypergraphs.
//
// Usage:
//
//	matrixmarket [file.mtx]
//
// With no argument a synthetic bfw398a-scale matrix is generated.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"hyperplex"
	"hyperplex/internal/gen"
)

func main() {
	log.SetFlags(0)

	var m *hyperplex.Matrix
	if len(os.Args) > 1 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			log.Fatal(err)
		}
		m, err = hyperplex.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("read %s: %dx%d, %d nonzeros\n", os.Args[1], m.Rows, m.Cols, m.NNZ())
	} else {
		spec := gen.Table1Specs(false)[0] // bfw398a
		m = gen.SyntheticMatrix(spec)
		fmt.Printf("synthesized %s: %dx%d, %d nonzeros\n", spec.Name, m.Rows, m.Cols, m.NNZ())
	}

	h, err := hyperplex.MatrixToHypergraph(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("as a hypergraph: %v\n", h)
	fmt.Printf("ΔV = %d, ΔF = %d, Δ2,F = %d\n", h.MaxVertexDegree(), h.MaxEdgeDegree(), h.MaxDegree2Edge())

	start := time.Now()
	mc := hyperplex.MaxCore(h)
	elapsed := time.Since(start)
	fmt.Printf("maximum core: %d-core with %d vertices and %d hyperedges (%.3fs)\n",
		mc.K, mc.NumVertices, mc.NumEdges, elapsed.Seconds())

	// Degree distribution of the rows.
	if fit, err := hyperplex.FitPowerLaw(hyperplex.DegreeHistogram(h.VertexDegrees())); err == nil {
		fmt.Printf("row-degree distribution: %v\n", fit)
	} else {
		fmt.Printf("row-degree distribution: not power-law-fittable (%v) — banded matrices are near-regular, unlike the protein network\n", err)
	}
}
