package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = "c1: a b\nc2: b c\n"

func TestRunTextToJSONAndBack(t *testing.T) {
	var js, errOut bytes.Buffer
	if err := run([]string{"-from", "text", "-to", "json"}, strings.NewReader(sample), &js, &errOut); err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := run([]string{"-from", "json", "-to", "text"}, bytes.NewReader(js.Bytes()), &txt, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "c1: a b") {
		t.Errorf("round trip lost structure:\n%s", txt.String())
	}
}

func TestRunTextToMtxAndBack(t *testing.T) {
	var mtx, errOut bytes.Buffer
	if err := run([]string{"-to", "mtx"}, strings.NewReader(sample), &mtx, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(mtx.String(), "%%MatrixMarket") {
		t.Fatalf("mtx output:\n%s", mtx.String())
	}
	var back bytes.Buffer
	if err := run([]string{"-from", "mtx", "-to", "text"}, bytes.NewReader(mtx.Bytes()), &back, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "|V|=3 |F|=2 |E|=4") {
		t.Errorf("status: %s", errOut.String())
	}
}

func TestRunToPajek(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-to", "pajek"}, strings.NewReader(sample), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "*Vertices 5") {
		t.Errorf("pajek output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-from", "nope"}, strings.NewReader(sample), &out, &errOut); err == nil {
		t.Error("unknown input format accepted")
	}
	if err := run([]string{"-to", "nope"}, strings.NewReader(sample), &out, &errOut); err == nil {
		t.Error("unknown output format accepted")
	}
	if err := run(nil, strings.NewReader("bad input"), &out, &errOut); err == nil {
		t.Error("bad input accepted")
	}
	if err := run([]string{"missing.txt"}, strings.NewReader(""), &out, &errOut); err == nil {
		t.Error("missing file accepted")
	}
}

// TestRunStoreRoundTrip converts text on stdin → store → text through
// real files and expects the text to survive unchanged.  The stdin
// build must take the streaming builder and write the same bytes as a
// build from the same text in a file.
func TestRunStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "g.store")
	var devnull, errOut bytes.Buffer
	if err := run([]string{"-to", "store", "-o", storePath}, strings.NewReader(sample), &devnull, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "streamed stdin") {
		t.Errorf("text on stdin → store did not take the streaming builder: %q", errOut.String())
	}
	textPath, filePath := filepath.Join(dir, "g.txt"), filepath.Join(dir, "file.store")
	if err := os.WriteFile(textPath, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-to", "store", "-o", filePath, textPath}, nil, &devnull, &errOut); err != nil {
		t.Fatal(err)
	}
	fromStdin, err1 := os.ReadFile(storePath)
	fromFile, err2 := os.ReadFile(filePath)
	if err := errors.Join(err1, err2); err != nil || !bytes.Equal(fromStdin, fromFile) {
		t.Errorf("the store built from stdin differs from the one built from the same text in a file (%v)", err)
	}
	var back bytes.Buffer
	if err := run([]string{"-from", "store", "-to", "text", storePath}, nil, &back, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(back.String(), "c1: a b") || !strings.Contains(back.String(), "c2: b c") {
		t.Errorf("store round trip lost structure:\n%s", back.String())
	}
}

// TestRunStoreStreamedBuild pins that a file-backed text input with
// -to store takes the two-pass streaming builder instead of the
// in-RAM read, and that the resulting store is equivalent to the one
// the in-RAM path writes.
func TestRunStoreStreamedBuild(t *testing.T) {
	dir := t.TempDir()
	textPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(textPath, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	storePath := filepath.Join(dir, "g.store")
	var devnull, errOut bytes.Buffer
	if err := run([]string{"-to", "store", "-o", storePath, textPath}, nil, &devnull, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "streamed") {
		t.Errorf("file-backed text → store did not take the streaming builder: %q", errOut.String())
	}
	var back bytes.Buffer
	if err := run([]string{"-from", "store", "-to", "text", storePath}, nil, &back, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(back.String(), "c1: a b") || !strings.Contains(back.String(), "c2: b c") {
		t.Errorf("streamed store lost structure:\n%s", back.String())
	}
	// Missing -o is rejected on the streaming path too.
	if err := run([]string{"-to", "store", textPath}, nil, &devnull, &errOut); err == nil {
		t.Error("-to store without -o accepted on the streaming path")
	}
}

// TestRunMtxMirrorOutOfRange pins the typed error the streaming store
// builder returns for a symmetric Matrix Market entry whose mirror lies
// outside the size line.
func TestRunMtxMirrorOutOfRange(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mirror.mtx")
	if err := os.WriteFile(path, []byte("%%MatrixMarket matrix coordinate pattern symmetric\n7 2 1\n7 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	err := run([]string{"-from", "mtx", "-to", "store", "-o", filepath.Join(dir, "mirror.store"), path}, nil, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), `mmio: entry 1 out of range: "7 1"`) {
		t.Errorf("got %v, want the out-of-range entry error", err)
	}
}

func TestRunStoreNeedsRealFiles(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-to", "store"}, strings.NewReader(sample), &out, &errOut); err == nil {
		t.Error("-to store without -o accepted")
	}
	if err := run([]string{"-from", "store"}, strings.NewReader(sample), &out, &errOut); err == nil {
		t.Error("-from store on stdin accepted")
	}
}
