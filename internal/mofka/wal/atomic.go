package wal

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic installs the concatenation of parts at path through a temp
// file in the same directory, fsynced and then renamed over it: a crash or a
// failure part-way leaves the previous file, never a truncated one, and no
// temp file behind.
// It is how every small sidecar of a data dir is written (cursors.json,
// topic.json, cluster.json, checkpoint.json, attempts.json, metadata.json).
// The directory itself is not fsynced: after a power loss the rename may not
// have happened, but whichever version is there is whole.
func WriteFileAtomic(path string, parts ...[]byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.Remove(tmp.Name()) }() // no-op after the rename
	for _, p := range parts {
		if _, err := tmp.Write(p); err != nil {
			_ = tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
