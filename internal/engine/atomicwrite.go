package engine

import (
	"os"
	"path/filepath"
)

// WriteAtomic writes data to path through a uniquely named temp file in the
// same directory, renamed into place: a reader (or a process restarted
// after a kill) sees the old file or the whole new one, never a torn
// write, and concurrent writers to one path never share a temp file. The
// temp file is removed on any failure. The file gets os.CreateTemp's mode,
// 0600. It does not fsync, so the write survives a killed process, not a
// power loss.
func WriteAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
