package stats

import (
	"hyperplex/internal/csr"
	"hyperplex/internal/hypergraph"
)

// unionFind is a weighted-quick-union structure with path halving.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

// ComponentsUF computes connected components with union-find directly
// over the pins.  It returns exactly the same labeling contract as
// Components (IDs, and the component list sorted by decreasing vertex
// count).  It shares no search logic with Components, which makes it
// the independent reference the tests and the benchmark harness check
// Components against, and the other arm of the component ablation.
func ComponentsUF(h *hypergraph.Hypergraph) (vComp, eComp []int32, comps []ComponentInfo) {
	nv, ne := h.NumVertices(), h.NumEdges()
	u := newUnionFind(nv + ne)
	for f := 0; f < ne; f++ {
		fn := int32(nv + f)
		for _, v := range h.Vertices(f) {
			u.union(v, fn)
		}
	}
	// Dense component IDs in order of first appearance (vertices then
	// edges), matching the BFS labeling of Components.
	idOf := make(map[int32]int32)
	label := func(x int32) int32 {
		r := u.find(x)
		id, ok := idOf[r]
		if !ok {
			id = csr.MustInt32(len(idOf))
			idOf[r] = id
		}
		return id
	}
	vComp = make([]int32, nv)
	for v := 0; v < nv; v++ {
		vComp[v] = label(int32(v))
	}
	eComp = make([]int32, ne)
	for f := 0; f < ne; f++ {
		eComp[f] = label(int32(nv + f))
	}
	return vComp, eComp, componentList(vComp, eComp, len(idOf))
}
