package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRandomText(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-dataset", "random", "-nv", "30", "-ne", "10"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "|V|=30 |F|=10") {
		t.Errorf("status line: %s", errOut.String())
	}
	if !strings.Contains(out.String(), "f0:") {
		t.Errorf("text output missing edges:\n%s", out.String())
	}
}

func TestRunCellzomeJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-dataset", "cellzome", "-format", "json"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"edges"`) {
		t.Error("json output missing edges key")
	}
	if !strings.Contains(errOut.String(), "|V|=1361 |F|=232") {
		t.Errorf("status line: %s", errOut.String())
	}
}

func TestRunProteome(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-dataset", "proteome", "-nv", "500", "-ne", "60", "-format", "pajek"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "*Vertices") {
		t.Error("pajek output missing header")
	}
}

func TestRunMatrixToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.mtx")
	var out, errOut bytes.Buffer
	if err := run([]string{"-dataset", "matrix", "-name", "bfw398a", "-short", "-o", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "%%MatrixMarket") {
		t.Error("matrix file missing header")
	}
}

func TestRunErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-dataset", "nope"}, &out, &errOut); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := run([]string{"-dataset", "matrix", "-name", "nope"}, &out, &errOut); err == nil {
		t.Error("unknown matrix accepted")
	}
	if err := run([]string{"-dataset", "random", "-format", "nope"}, &out, &errOut); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestRunErrorsLeaveOutput pins that an unknown format, dataset or
// matrix spec fails before the -o file is created, so an existing file
// keeps its bytes.
func TestRunErrorsLeaveOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	const content = "not to be truncated\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-format", "bogus"},
		{"-dataset", "nope"},
		{"-dataset", "matrix", "-name", "nope"},
	} {
		var out, errOut bytes.Buffer
		if err := run(append(args, "-o", path), &out, &errOut); err == nil {
			t.Errorf("%v: accepted", args)
		}
		if data, err := os.ReadFile(path); err != nil || string(data) != content {
			t.Errorf("%v -o left %q (%v), want the file unchanged", args, data, err)
		}
	}
}

// TestRunEveryFormat pins that -format takes every format hgconvert -to
// writes, the store only to a file.
func TestRunEveryFormat(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"text", "json", "mtx", "pajek", "store"} {
		path := filepath.Join(dir, "random."+format)
		var out, errOut bytes.Buffer
		if err := run([]string{"-dataset", "random", "-nv", "30", "-ne", "10", "-format", format, "-o", path}, &out, &errOut); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: wrote no file (%v)", format, err)
		}
		if !strings.Contains(errOut.String(), "|V|=30 |F|=10") {
			t.Errorf("%s: status line %q", format, errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"-dataset", "random", "-format", "store"}, &out, &errOut); err == nil {
		t.Error("-format store without -o accepted")
	}
}

func TestRunInstanceDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "inst")
	var out, errOut bytes.Buffer
	if err := run([]string{"-dataset", "cellzome", "-instance", dir}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "hypergraph.txt")); err != nil {
		t.Error("instance files missing")
	}
	if err := run([]string{"-dataset", "random", "-instance", dir}, &out, &errOut); err == nil {
		t.Error("-instance with random dataset accepted")
	}
}
