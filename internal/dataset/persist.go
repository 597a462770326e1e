package dataset

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hyperplex/internal/bio"
	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
)

// fpLoad fires once per file opened by LoadInstanceCtx, so chaos tests
// can fault any of the four loads of a saved instance.
var fpLoad = failpoint.Register("dataset.load")

// The on-disk layout of a saved instance:
//
//	DIR/hypergraph.txt    native text format
//	DIR/baits.txt         one protein name per line; reported baits
//	                      marked with a trailing " *"
//	DIR/annotations.json  per-protein annotation records
//	DIR/meta.json         core membership and singleton complexes
//
// Everything is name-keyed so the files survive vertex renumbering.

type annotationRecord struct {
	Known     bool `json:"known"`
	Essential bool `json:"essential"`
	Homolog   bool `json:"homolog"`
}

type metaRecord struct {
	CoreProteins  []string `json:"coreProteins"`
	CoreComplexes []string `json:"coreComplexes"`
	Singletons    []string `json:"singletonComplexes"`
}

// atomicWrite streams the output of write into path via a same-
// directory temp file that is fsynced and renamed into place, so a
// crash mid-write leaves either the old file or the complete new one —
// never a torn file under the final name.  On any error the temp file
// is removed and path is untouched.
func atomicWrite(path string, write func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("dataset: create temp for %s: %w", path, err)
	}
	finalized := false
	defer func() {
		if !finalized {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if err := write(bw); err != nil {
		return fmt.Errorf("dataset: write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("dataset: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("dataset: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("dataset: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("dataset: rename into %s: %w", path, err)
	}
	finalized = true
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("dataset: sync dir of %s: %w", path, err)
	}
	serr := dir.Sync()
	if cerr := dir.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil {
		return fmt.Errorf("dataset: sync dir of %s: %w", path, serr)
	}
	return nil
}

// Save writes the instance to dir (created if needed), with the
// hypergraph in the native text format.  Every file is written
// atomically (fsync-and-rename), so an interrupted Save never leaves a
// torn file behind.
func (inst *Instance) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataset: create %s: %w", dir, err)
	}
	if err := atomicWrite(filepath.Join(dir, "hypergraph.txt"), func(w io.Writer) error {
		return hypergraph.WriteText(w, inst.H)
	}); err != nil {
		return err
	}
	return inst.saveAux(dir)
}

// saveAux writes Save's three name-keyed sidecar files.
func (inst *Instance) saveAux(dir string) error {
	h := inst.H
	// Baits.
	if err := atomicWrite(filepath.Join(dir, "baits.txt"), func(w io.Writer) error {
		reported := make(map[int]bool, len(inst.BaitsReported))
		for _, v := range inst.BaitsReported {
			reported[v] = true
		}
		for _, v := range inst.BaitsUsed {
			mark := ""
			if reported[v] {
				mark = " *"
			}
			if _, err := fmt.Fprintf(w, "%s%s\n", h.VertexLabel(v), mark); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Annotations.
	ann := make(map[string]annotationRecord, h.NumVertices())
	for v := 0; v < h.NumVertices(); v++ {
		ann[h.VertexLabel(v)] = annotationRecord{
			Known:     inst.Ann.Known[v],
			Essential: inst.Ann.Essential[v],
			Homolog:   inst.Ann.Homolog[v],
		}
	}
	if err := writeJSON(filepath.Join(dir, "annotations.json"), ann); err != nil {
		return err
	}
	// Meta.
	meta := metaRecord{}
	for v, in := range inst.CoreV {
		if in {
			meta.CoreProteins = append(meta.CoreProteins, h.VertexLabel(v))
		}
	}
	for f, in := range inst.CoreF {
		if in {
			meta.CoreComplexes = append(meta.CoreComplexes, h.EdgeLabel(f))
		}
	}
	for _, f := range inst.Singletons {
		meta.Singletons = append(meta.Singletons, h.EdgeLabel(f))
	}
	return writeJSON(filepath.Join(dir, "meta.json"), meta)
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("dataset: encode %s: %w", path, err)
	}
	return atomicWrite(path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// LoadInstance reads an instance saved by Save.  The
// Published targets are re-attached (they are constants of the paper,
// not data).
func LoadInstance(dir string) (*Instance, error) {
	return LoadInstanceCtx(context.Background(), dir)
}

// loadHypergraph reads DIR/hypergraph.txt.
func loadHypergraph(ctx context.Context, dir string) (*hypergraph.Hypergraph, error) {
	hf, err := os.Open(filepath.Join(dir, "hypergraph.txt"))
	if err != nil {
		return nil, fmt.Errorf("dataset: load hypergraph: %w", err)
	}
	h, err := hypergraph.ReadTextCtx(ctx, hf)
	if cerr := hf.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("dataset: load hypergraph: %w", cerr)
	}
	return h, err
}

// LoadInstanceCtx is LoadInstance honoring cancellation, deadline and
// any run.Budget attached to ctx: the checkpoint runs before each of
// the four files is opened, and the hypergraph itself is read with
// ReadTextCtx.  On any error it returns (nil, err).
func LoadInstanceCtx(ctx context.Context, dir string) (*Instance, error) {
	meter := run.MeterFrom(ctx)
	checkpoint := func() error {
		if err := failpoint.Inject(fpLoad); err != nil {
			return err
		}
		return run.Tick(ctx, meter, 1)
	}
	if err := checkpoint(); err != nil {
		return nil, err
	}
	h, err := loadHypergraph(ctx, dir)
	if err != nil {
		return nil, err
	}
	inst := &Instance{H: h, Published: PublishedCellzome()}

	// Baits.
	if err := checkpoint(); err != nil {
		return nil, err
	}
	bf, err := os.Open(filepath.Join(dir, "baits.txt"))
	if err != nil {
		return nil, fmt.Errorf("dataset: load baits: %w", err)
	}
	sc := bufio.NewScanner(bf)
	for sc.Scan() {
		// Each bait line is charged: the file length is unbounded input.
		if err := run.Tick(ctx, meter, 1); err != nil {
			bf.Close()
			return nil, err
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		name, marked := strings.CutSuffix(line, " *")
		v, ok := h.VertexID(strings.TrimSpace(name))
		if !ok {
			bf.Close()
			return nil, fmt.Errorf("dataset: bait %q not in hypergraph", name)
		}
		inst.BaitsUsed = append(inst.BaitsUsed, v)
		if marked {
			inst.BaitsReported = append(inst.BaitsReported, v)
		}
	}
	if err := sc.Err(); err != nil {
		bf.Close()
		return nil, fmt.Errorf("dataset: load baits: %w", err)
	}
	bf.Close()

	// Annotations.
	if err := checkpoint(); err != nil {
		return nil, err
	}
	var ann map[string]annotationRecord
	if err := readJSON(filepath.Join(dir, "annotations.json"), &ann); err != nil {
		return nil, err
	}
	inst.Ann = &bio.AnnotationDB{
		Known:     make([]bool, h.NumVertices()),
		Essential: make([]bool, h.NumVertices()),
		Homolog:   make([]bool, h.NumVertices()),
	}
	for name, rec := range ann {
		// Each name is charged like a bait line: the file is unbounded
		// input, and every lookup walks a probe of the name index.
		if err := run.Tick(ctx, meter, 1); err != nil {
			return nil, err
		}
		v, ok := h.VertexID(name)
		if !ok {
			return nil, fmt.Errorf("dataset: annotated protein %q not in hypergraph", name)
		}
		inst.Ann.Known[v] = rec.Known
		inst.Ann.Essential[v] = rec.Essential
		inst.Ann.Homolog[v] = rec.Homolog
	}

	// Meta.
	if err := checkpoint(); err != nil {
		return nil, err
	}
	var meta metaRecord
	if err := readJSON(filepath.Join(dir, "meta.json"), &meta); err != nil {
		return nil, err
	}
	inst.CoreV = make([]bool, h.NumVertices())
	for _, name := range meta.CoreProteins {
		if err := run.Tick(ctx, meter, 1); err != nil {
			return nil, err
		}
		v, ok := h.VertexID(name)
		if !ok {
			return nil, fmt.Errorf("dataset: core protein %q not in hypergraph", name)
		}
		inst.CoreV[v] = true
	}
	inst.CoreF = make([]bool, h.NumEdges())
	for _, name := range meta.CoreComplexes {
		if err := run.Tick(ctx, meter, 1); err != nil {
			return nil, err
		}
		f, ok := h.EdgeID(name)
		if !ok {
			return nil, fmt.Errorf("dataset: core complex %q not in hypergraph", name)
		}
		inst.CoreF[f] = true
	}
	for _, name := range meta.Singletons {
		if err := run.Tick(ctx, meter, 1); err != nil {
			return nil, err
		}
		f, ok := h.EdgeID(name)
		if !ok {
			return nil, fmt.Errorf("dataset: singleton complex %q not in hypergraph", name)
		}
		inst.Singletons = append(inst.Singletons, f)
	}
	return inst, nil
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("dataset: load %s: %w", path, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("dataset: decode %s: %w", path, err)
	}
	return nil
}
