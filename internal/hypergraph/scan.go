package hypergraph

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"

	"hyperplex/internal/failpoint"
	"hyperplex/internal/run"
)

// TextEvents receives the records of the text format as ScanTextCtx
// encounters them.  A nil callback skips its record kind, so a
// counting pass can subscribe to only what it needs.
type TextEvents struct {
	// Vertex is called for each "vertex Name" isolated-vertex line.
	Vertex func(name string) error
	// Edge is called for each "name: members..." hyperedge line with
	// the hyperedge name and the member names as Fields splits them;
	// duplicates are not yet collapsed.  The name and the members alias
	// the scanner's line buffer and the slice holding the members is
	// reused, so none of them may be retained: a consumer resolves a
	// known name without a copy (ReadTextCtx in its name table's hash
	// index, the store builder with an index[string(member)] map
	// lookup) and copies the bytes only when it keeps a name.
	Edge func(name []byte, members [][]byte) error
	// ChargeBytes charges the consumed input bytes against the
	// budget's allocation estimate.  Callers that retain the parsed
	// content (ReadTextCtx) set it; streaming consumers that keep only
	// counters and names leave it false, so a MaxAlloc budget bounds
	// resident memory rather than input size.
	ChargeBytes bool
}

// ScanText parses the text format as a stream, delivering each record
// to ev without building a Hypergraph.  ReadText and the out-of-core
// store builder share this scanner, so both accept exactly the same
// inputs with the same diagnostics.
func ScanText(r io.Reader, ev TextEvents) error {
	return ScanTextCtx(context.Background(), r, ev)
}

// ScanTextCtx is ScanText honoring cancellation, deadline and any
// run.Budget attached to ctx, checked at entry and at bounded line
// intervals (one step per line read).
func ScanTextCtx(ctx context.Context, r io.Reader, ev TextEvents) error {
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, 0); err != nil {
		return err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	pending, pendingBytes := 0, int64(0)
	var members [][]byte
	for sc.Scan() {
		lineNo++
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
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if rest, ok := bytes.CutPrefix(line, []byte("vertex ")); ok {
			name := bytes.TrimSpace(rest)
			if len(name) == 0 {
				return fmt.Errorf("hypergraph: line %d: empty vertex name", lineNo)
			}
			if ev.Vertex != nil {
				if err := ev.Vertex(string(name)); err != nil {
					return err
				}
			}
			continue
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return fmt.Errorf("hypergraph: line %d: expected \"name: members...\"", lineNo)
		}
		name := bytes.TrimSpace(line[:colon])
		if len(name) == 0 {
			return fmt.Errorf("hypergraph: line %d: empty hyperedge name", lineNo)
		}
		if ev.Edge != nil {
			members = Fields(members, line[colon+1:])
			if err := ev.Edge(name, members); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("hypergraph: read: %w", err)
	}
	// Charge the tail that never reached a periodic checkpoint.
	if err := run.Tick(ctx, meter, int64(pending)); err != nil {
		return err
	}
	if ev.ChargeBytes {
		if err := meter.Alloc(pendingBytes); err != nil {
			return err
		}
	}
	return nil
}
