// Package pajek exports hypergraphs as Pajek .net network files and
// .clu partition files, the tool the paper used to draw Figure 3 (the
// yeast protein-complex hypergraph as a bipartite graph with its
// maximum core highlighted).
package pajek

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
)

// fpReadLine fires on every checkpoint of the .net reader.
var fpReadLine = failpoint.Register("pajek.read.line")

// readCheckEvery bounds how many input lines may pass between
// cancellation/budget checkpoints in ReadNetCtx.
const readCheckEvery = 256

// Fig. 3 color legend: proteins outside/inside the maximum core are
// yellow/red; complexes outside/inside are pink/green.
const (
	ColorProtein     = "Yellow"
	ColorProteinCore = "Red"
	ColorComplex     = "Pink"
	ColorComplexCore = "Green"
)

// WriteNet writes the bipartite drawing of h as a Pajek .net file.
// Vertices 1..|V| are the hypergraph's vertices, |V|+1..|V|+|F| its
// hyperedges; each pin becomes an edge.  coreV/coreF may be nil; when
// given, core members get the Fig. 3 highlight colors.
func WriteNet(w io.Writer, h *hypergraph.Hypergraph, coreV, coreF []bool) error {
	bw := bufio.NewWriter(w)
	nv, ne := h.NumVertices(), h.NumEdges()
	fmt.Fprintf(bw, "*Vertices %d\n", nv+ne)
	for v := 0; v < nv; v++ {
		color := ColorProtein
		if coreV != nil && coreV[v] {
			color = ColorProteinCore
		}
		fmt.Fprintf(bw, "%d %q ic %s\n", v+1, h.VertexLabel(v), color)
	}
	for f := 0; f < ne; f++ {
		color := ColorComplex
		if coreF != nil && coreF[f] {
			color = ColorComplexCore
		}
		fmt.Fprintf(bw, "%d %q ic %s\n", nv+f+1, h.EdgeLabel(f), color)
	}
	fmt.Fprintln(bw, "*Edges")
	for f := 0; f < ne; f++ {
		for _, v := range h.Vertices(f) {
			fmt.Fprintf(bw, "%d %d\n", int(v)+1, nv+f+1)
		}
	}
	return bw.Flush()
}

// WriteClu writes a Pajek partition file assigning class 1 to core
// proteins, 2 to non-core proteins, 3 to core complexes and 4 to
// non-core complexes (matching the four colors of Fig. 3).
func WriteClu(w io.Writer, h *hypergraph.Hypergraph, coreV, coreF []bool) error {
	bw := bufio.NewWriter(w)
	nv, ne := h.NumVertices(), h.NumEdges()
	fmt.Fprintf(bw, "*Vertices %d\n", nv+ne)
	for v := 0; v < nv; v++ {
		class := 2
		if coreV != nil && coreV[v] {
			class = 1
		}
		fmt.Fprintln(bw, class)
	}
	for f := 0; f < ne; f++ {
		class := 4
		if coreF != nil && coreF[f] {
			class = 3
		}
		fmt.Fprintln(bw, class)
	}
	return bw.Flush()
}

// maxNetVertices bounds the vertex count a *Vertices header may
// declare: the label table is allocated up front, so an unchecked
// header would let a tiny hostile file demand gigabytes.
const maxNetVertices = 1 << 22

// NetInfo is the minimal structural content of a .net file read back:
// vertex labels and the edge list (1-based IDs as stored).
type NetInfo struct {
	Labels []string
	Edges  [][2]int
}

// NetEvents receives the content of a .net file as ScanNetCtx parses
// it.  Any nil callback skips delivery of that record kind.
type NetEvents struct {
	// VertexCount is called once with the *Vertices header count n,
	// before any Vertex call.  n has already passed the maxNetVertices
	// cap, so it is safe to size allocations by.
	VertexCount func(n int) error
	// Vertex is called per vertex line with a 1-based id in [1, n] and
	// its label.
	Vertex func(id int, label string) error
	// Edge is called per edge line with the 1-based endpoint ids as
	// stored (unchecked against n, matching the written format, where
	// hyperedge nodes sit above the vertex range).
	Edge func(u, v int) error
	// ChargeBytes charges the consumed input bytes against the budget.
	// Callers that retain the file's content (ReadNetCtx) set it;
	// streaming consumers leave it false.
	ChargeBytes bool
}

// ScanNet parses the subset of the Pajek .net format emitted by
// WriteNet (a *Vertices section with quoted labels followed by an
// *Edges section) as a stream, delivering records to ev.  ReadNet and
// out-of-core ingest hooks share this scanner.
func ScanNet(r io.Reader, ev NetEvents) error {
	return ScanNetCtx(context.Background(), r, ev)
}

// ScanNetCtx is ScanNet honoring cancellation, deadline and any
// run.Budget attached to ctx, checked at entry and at bounded line
// intervals (one step per line).
func ScanNetCtx(ctx context.Context, r io.Reader, ev NetEvents) error {
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, 0); err != nil {
		return err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	state := 0 // 0=expect header, 1=vertices, 2=edges
	numVertices := 0
	pending, pendingBytes := 0, int64(0)
	for sc.Scan() {
		pending++
		pendingBytes += int64(len(sc.Bytes())) + 1
		if pending >= readCheckEvery {
			if err := failpoint.Inject(fpReadLine); err != nil {
				return err
			}
			if err := run.Tick(ctx, meter, int64(pending)); err != nil {
				return err
			}
			if ev.ChargeBytes {
				if err := meter.Alloc(pendingBytes); err != nil {
					return err
				}
			}
			pending, pendingBytes = 0, 0
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		lower := strings.ToLower(line)
		switch {
		case strings.HasPrefix(lower, "*vertices"):
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return fmt.Errorf("pajek: bad *Vertices line %q", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return fmt.Errorf("pajek: bad vertex count in %q", line)
			}
			if n > maxNetVertices {
				return fmt.Errorf("pajek: vertex count %d exceeds the %d limit", n, maxNetVertices)
			}
			numVertices = n
			if ev.VertexCount != nil {
				if err := ev.VertexCount(n); err != nil {
					return err
				}
			}
			state = 1
			continue
		case strings.HasPrefix(lower, "*edges") || strings.HasPrefix(lower, "*arcs"):
			state = 2
			continue
		case strings.HasPrefix(lower, "*"):
			return fmt.Errorf("pajek: unsupported section %q", line)
		}
		switch state {
		case 1:
			id, label, err := parseVertexLine(line)
			if err != nil {
				return err
			}
			if id < 1 || id > numVertices {
				return fmt.Errorf("pajek: vertex id %d out of range", id)
			}
			if ev.Vertex != nil {
				if err := ev.Vertex(id, label); err != nil {
					return err
				}
			}
		case 2:
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return fmt.Errorf("pajek: bad edge line %q", line)
			}
			u, err1 := strconv.Atoi(fields[0])
			v, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("pajek: bad edge line %q", line)
			}
			if ev.Edge != nil {
				if err := ev.Edge(u, v); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("pajek: content before *Vertices: %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("pajek: read: %w", err)
	}
	return nil
}

// ReadNet parses the subset of the Pajek .net format emitted by
// WriteNet (a *Vertices section with quoted labels followed by an
// *Edges section).  It exists so tests can verify round trips and so
// the tools can re-ingest their own exports.
func ReadNet(r io.Reader) (*NetInfo, error) {
	return ReadNetCtx(context.Background(), r)
}

// ReadNetCtx is ReadNet honoring cancellation, deadline and any
// run.Budget attached to ctx, checked at entry and at bounded line
// intervals (one step per line plus the bytes consumed are charged).
// On any error it returns (nil, err).
func ReadNetCtx(ctx context.Context, r io.Reader) (*NetInfo, error) {
	info := &NetInfo{}
	err := ScanNetCtx(ctx, r, NetEvents{
		ChargeBytes: true,
		VertexCount: func(n int) error {
			info.Labels = make([]string, n)
			return nil
		},
		Vertex: func(id int, label string) error {
			info.Labels[id-1] = label
			return nil
		},
		Edge: func(u, v int) error {
			info.Edges = append(info.Edges, [2]int{u, v})
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return info, nil
}

func parseVertexLine(line string) (int, string, error) {
	sp := strings.IndexAny(line, " \t")
	if sp < 0 {
		return 0, "", fmt.Errorf("pajek: bad vertex line %q", line)
	}
	id, err := strconv.Atoi(line[:sp])
	if err != nil {
		return 0, "", fmt.Errorf("pajek: bad vertex id in %q", line)
	}
	rest := strings.TrimSpace(line[sp:])
	if strings.HasPrefix(rest, "\"") {
		label, err := strconv.Unquote(firstQuoted(rest))
		if err != nil {
			return 0, "", fmt.Errorf("pajek: bad label in %q", line)
		}
		return id, label, nil
	}
	return id, strings.Fields(rest)[0], nil
}

func firstQuoted(s string) string {
	// s begins with a quote; find its matching close (WriteNet uses %q,
	// so standard Go escaping applies).
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '"' {
			return s[:i+1]
		}
	}
	return s
}
