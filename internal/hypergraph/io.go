package hypergraph

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"hyperplex/internal/failpoint"
	"hyperplex/internal/run"
)

// fpReadLine fires on every checkpoint of the text-format reader.
var fpReadLine = failpoint.Register("hypergraph.read.line")

// readCheckEvery bounds how many input lines may pass between
// cancellation/budget checkpoints in ReadTextCtx.
const readCheckEvery = 256

// The text format is one hyperedge per line:
//
//	EdgeName: member1 member2 member3 ...
//
// Blank lines and lines starting with '#' are ignored.  A line of the
// form "vertex Name" declares an isolated vertex.  This is the native
// on-disk format of the cmd/ tools.

// WriteText writes h in the text format.
func WriteText(w io.Writer, h *Hypergraph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# hypergraph |V|=%d |F|=%d |E|=%d\n", h.NumVertices(), h.NumEdges(), h.NumPins())

	inEdge := make([]bool, h.NumVertices())
	for f := 0; f < h.NumEdges(); f++ {
		bw.WriteString(h.EdgeLabel(f))
		bw.WriteString(":")
		for _, v := range h.Vertices(f) {
			inEdge[v] = true
			bw.WriteByte(' ')
			bw.WriteString(h.VertexLabel(int(v)))
		}
		bw.WriteByte('\n')
	}
	for v := 0; v < h.NumVertices(); v++ {
		if !inEdge[v] {
			fmt.Fprintf(bw, "vertex %s\n", h.VertexLabel(v))
		}
	}
	return bw.Flush()
}

// ReadText parses the text format.
func ReadText(r io.Reader) (*Hypergraph, error) {
	return ReadTextCtx(context.Background(), r)
}

// ReadTextCtx is ReadText honoring cancellation, deadline and any
// run.Budget attached to ctx, checked at entry and at bounded line
// intervals.  Each checkpoint charges one step per line read plus the
// bytes consumed against the budget's allocation estimate, so a budget
// bounds how much of a hostile or oversized input is admitted.  A
// repeated hyperedge name is reported at the line that repeats it, so
// the error names the first fault in file order, as the store's
// streaming build does.  On any error it returns (nil, err).
func ReadTextCtx(ctx context.Context, r io.Reader) (*Hypergraph, error) {
	b := NewBuilder()
	err := ScanTextCtx(ctx, r, TextEvents{
		ChargeBytes: true,
		Vertex: func(name string) error {
			b.AddVertex(name)
			return b.err
		},
		Edge: func(name []byte, members [][]byte) error {
			b.addEdgeBytes(name, members)
			return b.err
		},
	})
	if err != nil {
		return nil, err
	}
	return b.build(false)
}

// ReadTextRows is ReadTextRowsCtx with the default context.
func ReadTextRows(r io.Reader, row func(members []int32) error) (vNames, eNames []string, err error) {
	return ReadTextRowsCtx(context.Background(), r, row)
}

// ReadTextRowsCtx reads the text format through ReadTextCtx's Builder
// but keeps no rows: it hands each hyperedge's members, sorted and
// duplicate-free vertex IDs, to row as the hyperedge is read, and
// returns both sides' names in ID order.  The IDs, the names and every
// error are ReadTextCtx's; row must not retain its argument, and an
// error from row stops the read and is returned.  What stays resident
// is the builder's name tables and one offset per hyperedge, O(|V|+|F|),
// and that is what it charges against the budget's allocation estimate
// as it grows, in place of the input bytes ReadTextCtx charges: a
// MaxAlloc budget bounds resident memory, not input size.
func ReadTextRowsCtx(ctx context.Context, r io.Reader, row func(members []int32) error) (vNames, eNames []string, err error) {
	meter := run.MeterFrom(ctx)
	b := NewBuilder()
	charged := int64(0)
	charge := func() error {
		if b.err != nil {
			return b.err
		}
		grown := b.footprint() - charged
		if grown <= 0 {
			return nil
		}
		charged += grown
		return meter.Alloc(grown)
	}
	err = ScanTextCtx(ctx, r, TextEvents{
		Vertex: func(name string) error {
			b.AddVertex(name)
			return charge()
		},
		Edge: func(name []byte, members [][]byte) error {
			b.addEdgeBytes(name, members)
			if err := charge(); err != nil {
				return err
			}
			err := row(b.pins)
			b.pins = b.pins[:0]
			return err
		},
	})
	if err != nil {
		return nil, nil, err
	}
	nv, ne := b.NumVertices(), b.NumEdges()
	if err := meter.Alloc(16 * int64(nv+ne)); err != nil {
		return nil, nil, err
	}
	vNames, eNames = make([]string, nv), make([]string, ne)
	for v := range vNames {
		vNames[v] = b.vertices.name(v)
	}
	for f := range eNames {
		eNames[f] = b.edges.name(f)
	}
	return vNames, eNames, nil
}

// jsonHypergraph is the JSON wire form: explicit vertex list (so
// isolated vertices survive a round trip) and named member lists.
type jsonHypergraph struct {
	Vertices []string            `json:"vertices"`
	Edges    map[string][]string `json:"edges"`
	Order    []string            `json:"edgeOrder"`
}

// MarshalJSON encodes h with stable ordering.
func (h *Hypergraph) MarshalJSON() ([]byte, error) {
	j := jsonHypergraph{
		Vertices: make([]string, h.NumVertices()),
		Edges:    make(map[string][]string, h.NumEdges()),
		Order:    make([]string, h.NumEdges()),
	}
	for v := range j.Vertices {
		j.Vertices[v] = h.VertexLabel(v)
	}
	for f := 0; f < h.NumEdges(); f++ {
		name := h.EdgeLabel(f)
		j.Order[f] = name
		members := make([]string, 0, h.EdgeDegree(f))
		for _, v := range h.Vertices(f) {
			members = append(members, j.Vertices[v])
		}
		j.Edges[name] = members
	}
	return json.Marshal(j)
}

// UnmarshalJSONHypergraph decodes the JSON wire form into a new
// Hypergraph.  (A method form is impossible on an immutable type, so
// this is a function.)
func UnmarshalJSONHypergraph(data []byte) (*Hypergraph, error) {
	var j jsonHypergraph
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("hypergraph: json: %w", err)
	}
	b := NewBuilder()
	for _, v := range j.Vertices {
		b.AddVertex(v)
	}
	order := j.Order
	if len(order) == 0 {
		// Older files without an explicit order: sort for determinism.
		for name := range j.Edges {
			order = append(order, name)
		}
		sortStrings(order)
	}
	for _, name := range order {
		members, ok := j.Edges[name]
		if !ok {
			return nil, fmt.Errorf("hypergraph: json: edgeOrder names unknown edge %q", name)
		}
		b.AddEdge(name, members...)
	}
	return b.Build()
}

func sortStrings(s []string) {
	// Tiny insertion sort; files without an order section are small
	// legacy cases and this avoids importing sort for one call site.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
