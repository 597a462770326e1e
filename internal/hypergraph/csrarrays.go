package hypergraph

import "fmt"

// FromCSRArrays assembles a Hypergraph directly over prebuilt CSR
// incidence arrays, aliasing the two pin slices rather than copying
// them.  This is the bridge the storage layer uses to present a
// memory-mapped store file as an ordinary Hypergraph: the offsets are
// widened into O(|V|+|F|) resident ints, while the pin arrays — the
// part that dominates at scale — stay wherever the caller keeps them
// (for example an mmap'd file section).  Names come in the store's
// layout, per side an (n+1)-entry offset array from 0 and the blob it
// indexes, name i being blob[off[i]:off[i+1]]: the offsets are aliased
// like the pins and the blob is copied into one string.  A nil offset
// array leaves that side unnamed, with the accessors returning "".
//
// Only shape consistency, the name offsets and name uniqueness are
// checked here.  The arrays are otherwise trusted structurally;
// callers with untrusted input should run csr.Validate (or Validate on
// the result) first, as the store's Open path does.
func FromCSRArrays(vOff, vAdj, eOff, eAdj []int32, vNameOff []int32, vNameBlob []byte, eNameOff []int32, eNameBlob []byte) (*Hypergraph, error) {
	if len(vOff) == 0 || len(eOff) == 0 {
		return nil, fmt.Errorf("hypergraph: offset arrays must have at least one entry")
	}
	nv, ne := len(vOff)-1, len(eOff)-1
	if int(vOff[nv]) != len(vAdj) {
		return nil, fmt.Errorf("hypergraph: vertex offsets end at %d, want %d", vOff[nv], len(vAdj))
	}
	if int(eOff[ne]) != len(eAdj) {
		return nil, fmt.Errorf("hypergraph: edge offsets end at %d, want %d", eOff[ne], len(eAdj))
	}
	if len(vAdj) != len(eAdj) {
		return nil, fmt.Errorf("hypergraph: pin counts disagree: %d vertex-side vs %d edge-side", len(vAdj), len(eAdj))
	}
	vNames, err := blobNames("vertex", "vertices", nv, vNameOff, vNameBlob, false)
	if err != nil {
		return nil, err
	}
	eNames, err := blobNames("hyperedge", "edges", ne, eNameOff, eNameBlob, true)
	if err != nil {
		return nil, err
	}
	return &Hypergraph{
		vNames: vNames,
		eNames: eNames,
		vOff:   widenOffsets(vOff),
		vAdj:   vAdj,
		eOff:   widenOffsets(eOff),
		eAdj:   eAdj,
	}, nil
}

func widenOffsets(off []int32) []int {
	out := make([]int, len(off))
	for i, x := range off {
		out[i] = int(x)
	}
	return out
}
