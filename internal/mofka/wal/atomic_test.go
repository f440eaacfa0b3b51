package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a write replaces the file whole, a write that fails
// leaves what was there, and neither leaves a temp file in the directory.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	noTemps := func(when string) {
		t.Helper()
		if left, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(left) != 0 {
			t.Fatalf("%s: temp files left behind: %v", when, left)
		}
	}
	path := filepath.Join(dir, "metadata.json")
	for _, want := range []string{`{"attempt":1,"padding":"xxxxxxxxxxxxxxxx"}`, `{"attempt":2}`} {
		if err := WriteFileAtomic(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("file holds %q (%v), want %q", got, err, want)
		}
		noTemps("after a write")
	}

	// The install fails — the target is a directory that is not empty — after
	// the temp file was written and synced.
	blocked := filepath.Join(dir, "checkpoint.json")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	previous := filepath.Join(blocked, "previous")
	if err := os.WriteFile(previous, []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(blocked, []byte("new")); err == nil {
		t.Fatal("a write over a non-empty directory succeeded")
	}
	if got, err := os.ReadFile(previous); err != nil || string(got) != "kept" {
		t.Fatalf("previous content is %q (%v) after a failed write", got, err)
	}
	noTemps("after a failed write")

	// Nothing to write into: the failure comes before any temp file exists.
	if err := WriteFileAtomic(filepath.Join(dir, "absent", "x.json"), []byte("x")); err == nil {
		t.Fatal("a write into a missing directory succeeded")
	}
	noTemps("after a write into a missing directory")
}
