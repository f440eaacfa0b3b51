package wal

import "os"

// SetFsync replaces the fsync of segment files for a test — to hold one
// back, fail it or count them — and returns what puts the real one back.
func SetFsync(f func(*os.File) error) (restore func()) {
	old := fsync
	fsync = f
	return func() { fsync = old }
}
