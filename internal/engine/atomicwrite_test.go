package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestWriteAtomicConcurrentWriters: goroutines writing different payloads
// to one path leave exactly one whole payload there and no temp file.
func TestWriteAtomicConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.ckpt")
	const writers = 8
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 64<<10) }
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 20 && errs[i] == nil; r++ {
				errs[i] = WriteAtomic(path, payload(i))
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole := false
	for i := 0; i < writers; i++ {
		whole = whole || bytes.Equal(got, payload(i))
	}
	if !whole {
		t.Fatalf("%d bytes at the path are no single writer's payload", len(got))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want the file alone", len(entries))
	}
}

// TestWriteAtomicRenameFailure: a rename that fails because the destination
// is a directory returns the error, removes the temp file and leaves the
// destination untouched.
func TestWriteAtomicRenameFailure(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "dst")
	if err := os.Mkdir(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(dst, "keep")
	if err := os.WriteFile(keep, []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(dst, []byte("payload")); err == nil {
		t.Fatal("rename onto a directory reported no error")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "dst" || !entries[0].IsDir() {
		t.Fatalf("directory holds %v, want the untouched destination alone", entries)
	}
	if got, err := os.ReadFile(keep); err != nil || string(got) != "kept" {
		t.Fatalf("destination contents changed: %q, %v", got, err)
	}
}
