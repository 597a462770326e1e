package dataset

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"hyperplex/internal/core"
	"hyperplex/internal/hypergraph"
)

// TestSaveLoadRoundTrip saves Cellzome and loads it back, the proteins
// matched by name; and the same instance over an unnamed copy of its
// hypergraph, whose files key every protein and complex by the labels
// hypergraph.txt prints.
func TestSaveLoadRoundTrip(t *testing.T) {
	cz := Cellzome()
	rows := make([][]int32, cz.H.NumEdges())
	for f := range rows {
		rows[f] = cz.H.Vertices(f)
	}
	h, err := hypergraph.FromEdgeSets(cz.H.NumVertices(), rows)
	if err != nil {
		t.Fatal(err)
	}
	unnamed := *cz
	unnamed.H = h
	for _, inst := range []*Instance{cz, &unnamed} {
		dir := t.TempDir()
		if err := inst.Save(dir); err != nil {
			t.Fatal(err)
		}
		for _, f := range []string{"hypergraph.txt", "baits.txt", "annotations.json", "meta.json"} {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				t.Errorf("missing %s: %v", f, err)
			}
		}

		got, err := LoadInstance(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got.H.NumVertices() != inst.H.NumVertices() || got.H.NumEdges() != inst.H.NumEdges() || got.H.NumPins() != inst.H.NumPins() {
			t.Fatalf("hypergraph shape changed: %v vs %v", got.H, inst.H)
		}
		if len(got.BaitsUsed) != len(inst.BaitsUsed) || len(got.BaitsReported) != len(inst.BaitsReported) {
			t.Errorf("baits: %d/%d vs %d/%d", len(got.BaitsUsed), len(got.BaitsReported), len(inst.BaitsUsed), len(inst.BaitsReported))
		}
		// Annotations survive by name.
		for v := 0; v < inst.H.NumVertices(); v++ {
			name := inst.H.VertexLabel(v)
			gv, ok := got.H.VertexID(name)
			if !ok {
				t.Fatalf("protein %q lost", name)
			}
			if got.Ann.Known[gv] != inst.Ann.Known[v] ||
				got.Ann.Essential[gv] != inst.Ann.Essential[v] ||
				got.Ann.Homolog[gv] != inst.Ann.Homolog[v] {
				t.Fatalf("annotations for %q changed", name)
			}
		}
		// The loaded core matches a fresh computation.
		mc := core.MaxCore(got.H)
		for v := range mc.VertexIn {
			if mc.VertexIn[v] != got.CoreV[v] {
				t.Fatalf("loaded CoreV disagrees with computed core at %s", got.H.VertexName(v))
			}
		}
		if len(got.Singletons) != len(inst.Singletons) {
			t.Errorf("singletons: %d vs %d", len(got.Singletons), len(inst.Singletons))
		}
	}
}

func TestAtomicWritePartialFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := os.WriteFile(path, []byte("old contents\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk exploded")
	err := atomicWrite(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half of the new conte"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("atomicWrite error = %v, want wrapped %v", err, boom)
	}
	// The old file is untouched and the temp file is gone.
	b, rerr := os.ReadFile(path)
	if rerr != nil || string(b) != "old contents\n" {
		t.Fatalf("target file damaged by failed write: %q, %v", b, rerr)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) != 1 {
		t.Fatalf("failed atomicWrite littered the directory: %v", entries)
	}
}

func TestLoadInstanceErrors(t *testing.T) {
	if _, err := LoadInstance(t.TempDir()); err == nil {
		t.Error("loading an empty directory succeeded")
	}
	// Corrupt baits: unknown protein name.
	dir := t.TempDir()
	inst := Cellzome()
	if err := inst.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "baits.txt"), []byte("NOSUCHPROTEIN\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadInstance(dir); err == nil {
		t.Error("unknown bait accepted")
	}
}
