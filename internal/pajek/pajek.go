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

// ReadNet parses the subset of the Pajek .net format emitted by
// WriteNet (a *Vertices section with quoted labels followed by an
// *Edges section).  It exists so tests can verify WriteNet's round
// trips.
func ReadNet(r io.Reader) (*NetInfo, error) {
	return ReadNetCtx(context.Background(), r)
}

// ReadNetCtx is ReadNet honoring cancellation, deadline and any
// run.Budget attached to ctx, checked at entry and at bounded line
// intervals (one step per line plus the bytes consumed are charged).
// On any error it returns (nil, err).
func ReadNetCtx(ctx context.Context, r io.Reader) (*NetInfo, error) {
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, 0); err != nil {
		return nil, err
	}
	info := &NetInfo{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	state := 0 // 0=expect header, 1=vertices, 2=edges
	pending, pendingBytes := 0, int64(0)
	for sc.Scan() {
		pending++
		pendingBytes += int64(len(sc.Bytes())) + 1
		if pending >= readCheckEvery {
			if err := failpoint.Inject(fpReadLine); err != nil {
				return nil, err
			}
			if err := run.Tick(ctx, meter, int64(pending)); err != nil {
				return nil, err
			}
			if err := meter.Alloc(pendingBytes); err != nil {
				return nil, err
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
				return nil, fmt.Errorf("pajek: bad *Vertices line %q", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("pajek: bad vertex count in %q", line)
			}
			if n > maxNetVertices {
				return nil, fmt.Errorf("pajek: vertex count %d exceeds the %d limit", n, maxNetVertices)
			}
			info.Labels = make([]string, n)
			state = 1
			continue
		case strings.HasPrefix(lower, "*edges") || strings.HasPrefix(lower, "*arcs"):
			state = 2
			continue
		case strings.HasPrefix(lower, "*"):
			return nil, fmt.Errorf("pajek: unsupported section %q", line)
		}
		switch state {
		case 1:
			id, label, err := parseVertexLine(line)
			if err != nil {
				return nil, err
			}
			if id < 1 || id > len(info.Labels) {
				return nil, fmt.Errorf("pajek: vertex id %d out of range", id)
			}
			info.Labels[id-1] = label
		case 2:
			// Endpoint ids are kept as stored, unchecked against the
			// vertex count: the written format puts hyperedge nodes
			// above the vertex range.
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return nil, fmt.Errorf("pajek: bad edge line %q", line)
			}
			u, err1 := strconv.Atoi(fields[0])
			v, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("pajek: bad edge line %q", line)
			}
			info.Edges = append(info.Edges, [2]int{u, v})
		default:
			return nil, fmt.Errorf("pajek: content before *Vertices: %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pajek: read: %w", err)
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
