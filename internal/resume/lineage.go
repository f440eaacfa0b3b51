package resume

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"taskprov/internal/mofka/wal"
)

// LineageFile is the attempt-lineage record's file name inside a run's data
// directory.
const LineageFile = "attempts.json"

// Attempt is one session incarnation against a data dir. The lineage record
// is the fencing token between incarnations: attempt N+1 starts only after
// reading attempt N's entry, and workers of attempt N died with its kernel —
// stale blob references are additionally fenced by owner incarnation inside
// the proxy store.
type Attempt struct {
	// Attempt numbers incarnations from 1 (the original run).
	Attempt int `json:"attempt"`
	// ResumedFrom is the attempt this one continued (0 for the original).
	ResumedFrom int `json:"resumed_from,omitempty"`
	// StartSeconds is the virtual time the incarnation's clock started at.
	StartSeconds float64 `json:"start_seconds"`
	// Completed flips true when the incarnation finished its workflow and
	// wrote final metadata. A data dir whose last attempt completed refuses
	// to resume.
	Completed bool `json:"completed"`
	// EndSeconds is the virtual time the incarnation completed at (0 while
	// running or crashed).
	EndSeconds float64 `json:"end_seconds,omitempty"`
}

// Lineage is the full attempt history of a data dir, newest last.
type Lineage struct {
	Attempts []Attempt `json:"attempts"`
}

// Last returns the newest attempt (zero value when the lineage is empty).
func (l Lineage) Last() Attempt {
	if len(l.Attempts) == 0 {
		return Attempt{}
	}
	return l.Attempts[len(l.Attempts)-1]
}

// LoadLineage reads dataDir's attempt history. A missing file yields an
// empty lineage (a pre-lineage data dir; the caller decides how to interpret
// it, typically as a single crashed or completed attempt 1).
func LoadLineage(dataDir string) (Lineage, error) {
	b, err := os.ReadFile(filepath.Join(dataDir, LineageFile))
	if os.IsNotExist(err) {
		return Lineage{}, nil
	}
	if err != nil {
		return Lineage{}, fmt.Errorf("resume: read lineage: %w", err)
	}
	var l Lineage
	if err := json.Unmarshal(b, &l); err != nil {
		return Lineage{}, fmt.Errorf("resume: corrupt lineage: %w", err)
	}
	return l, nil
}

// AppendAttempt records a new incarnation in dataDir's lineage, returning
// the updated history.
func AppendAttempt(dataDir string, a Attempt) (Lineage, error) {
	l, err := LoadLineage(dataDir)
	if err != nil {
		return Lineage{}, err
	}
	l.Attempts = append(l.Attempts, a)
	if err := writeLineage(dataDir, l); err != nil {
		return Lineage{}, err
	}
	return l, nil
}

// CompleteAttempt marks attempt n completed at endSeconds in dataDir's
// lineage.
func CompleteAttempt(dataDir string, n int, endSeconds float64) error {
	l, err := LoadLineage(dataDir)
	if err != nil {
		return err
	}
	found := false
	for i := range l.Attempts {
		if l.Attempts[i].Attempt == n {
			l.Attempts[i].Completed = true
			l.Attempts[i].EndSeconds = endSeconds
			found = true
		}
	}
	if !found {
		return fmt.Errorf("resume: attempt %d not in lineage", n)
	}
	return writeLineage(dataDir, l)
}

func writeLineage(dataDir string, l Lineage) error {
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return fmt.Errorf("resume: encode lineage: %w", err)
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return fmt.Errorf("resume: lineage dir: %w", err)
	}
	if err := wal.WriteFileAtomic(filepath.Join(dataDir, LineageFile), b); err != nil {
		return fmt.Errorf("resume: write lineage: %w", err)
	}
	return nil
}
