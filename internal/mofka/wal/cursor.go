package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// CursorStore is the small sidecar that persists consumer cursors next to a
// broker's event log, so Commit/LoadCursor survive restarts. The whole map
// is rewritten atomically (temp file + fsync + rename) on every update —
// cursors are tiny and commits are rare compared to appends, so simplicity
// wins over an incremental format; a commit that moves several cursors is
// still one update (SetBatch).
type CursorStore struct {
	path string

	mu sync.Mutex
	m  map[string]uint64
}

// OpenCursorStore loads the cursor file at path, starting empty when it does
// not exist yet.
func OpenCursorStore(path string) (*CursorStore, error) {
	s := &CursorStore{path: path, m: make(map[string]uint64)}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: open cursor store: %w", err)
	}
	if err := json.Unmarshal(b, &s.m); err != nil {
		return nil, fmt.Errorf("wal: corrupt cursor store %s: %w", path, err)
	}
	return s, nil
}

// Cursor is one committed position: the key of a (consumer, topic,
// partition) and the consumer's next unread offset there.
type Cursor struct {
	Key  string
	Next uint64
}

// SetBatch records cursors and persists the store durably once: one rewrite,
// one fsync, however many keys moved.
func (s *CursorStore) SetBatch(cursors []Cursor) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range cursors {
		s.m[c.Key] = c.Next
	}
	return s.flushLocked()
}

// All returns a copy of every committed cursor.
func (s *CursorStore) All() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.m))
	for k, v := range s.m {
		out[k] = v
	}
	return out
}

// flushLocked installs the map over the store path atomically, so a crash
// mid-write leaves the previous version intact.
func (s *CursorStore) flushLocked() error {
	b, err := json.Marshal(s.m)
	if err != nil {
		return fmt.Errorf("wal: encode cursors: %w", err)
	}
	dir := filepath.Dir(s.path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: cursor store dir: %w", err)
	}
	if err := WriteFileAtomic(s.path, b); err != nil {
		return fmt.Errorf("wal: install cursors: %w", err)
	}
	return nil
}
