package wal

import "os"

// SetFsync replaces the fsync of segment files for a test — to hold one
// back, fail it or count them — and returns what puts the real one back.
func SetFsync(f func(*os.File) error) (restore func()) {
	old := fsync
	fsync = f
	return func() { fsync = old }
}

// Observers and shorthands the in-package tests read the log through.

// Append appends a single record (a one-record batch).
func (l *Log) Append(rec Record) (uint64, error) {
	return l.AppendBatch([]Record{rec})
}

// Segments returns the current number of on-disk segments.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// TornBytes reports how many bytes of torn tail the open-time recovery
// discarded (or, read-only, skipped) — 0 after a clean shutdown.
func (l *Log) TornBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.torn
}

// WithSegmentBytes returns o with the rotation threshold set, for the
// external tests that need a log of several segments.
func (o Options) WithSegmentBytes(n int64) Options {
	o.segmentBytes = n
	return o
}

// SetReadWindow shrinks (or grows) the window a reader that keeps nothing
// reads through, and returns what puts the real one back.
func SetReadWindow(n int64) (restore func()) {
	old := readWindow
	readWindow = n
	return func() { readWindow = old }
}
