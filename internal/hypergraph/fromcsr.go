package hypergraph

import "hyperplex/internal/csr"

// FromCSR wraps prebuilt incidence arrays as a Hypergraph, aliasing
// all four of them.  This is how the storage layer presents a
// memory-mapped store file as an ordinary Hypergraph: the arrays stay
// wherever the caller keeps them (an mmap'd file section, say), and
// only the names and their indexes become RAM-resident.  Names come in
// the store's layout, per side an (n+1)-entry offset array from 0 and
// the blob it indexes, name i being blob[off[i]:off[i+1]]: the offsets
// are aliased like the arrays and the blob is copied into one string.
// A nil offset array leaves that side unnamed, with the accessors
// returning "".
//
// Only the name offsets and name uniqueness are checked here.  The
// arrays are trusted; callers with untrusted input run c.Validate
// first, as the store's Open path does.
func FromCSR(c *csr.CSR, vNameOff []int32, vNameBlob []byte, eNameOff []int32, eNameBlob []byte) (*Hypergraph, error) {
	vNames, err := blobNames("vertex", "vertices", c.NumVertices(), vNameOff, vNameBlob, false)
	if err != nil {
		return nil, err
	}
	eNames, err := blobNames("hyperedge", "edges", c.NumEdges(), eNameOff, eNameBlob, true)
	if err != nil {
		return nil, err
	}
	return &Hypergraph{vNames: vNames, eNames: eNames, c: *c}, nil
}
