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

// textEvents receives the records of the text format as scanText
// encounters them.  A nil callback skips its record kind.
type textEvents struct {
	// Vertex is called for each "vertex Name" isolated-vertex line.
	Vertex func(name string) error
	// Edge is called for each "name: members..." hyperedge line with
	// the hyperedge name and the member names as Fields splits them;
	// duplicates are not yet collapsed.  The name and the members alias
	// the scanner's line buffer and the slice holding the members is
	// reused, so none of them may be retained: the Builder resolves a
	// known name in its name table's hash index without a copy, and
	// copies the bytes only when it keeps a name.
	Edge func(name []byte, members [][]byte) error
	// ChargeBytes charges the consumed input bytes against the
	// budget's allocation estimate.  ReadTextCtx, which keeps the parsed
	// content, sets it; ReadTextRowsCtx charges the footprint of the
	// name tables it keeps instead, so a MaxAlloc budget bounds
	// resident memory rather than input size.
	ChargeBytes bool
}

// scanText parses the text format as a stream, delivering each record
// to ev without building a Hypergraph, honoring cancellation, deadline
// and any run.Budget attached to ctx, checked at entry and at bounded
// line intervals (one step per line read).  ReadTextCtx and
// ReadTextRowsCtx, through which the store's streaming build reads,
// share it, so both accept exactly the same inputs with the same
// diagnostics.
func scanText(ctx context.Context, r io.Reader, ev textEvents) error {
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
