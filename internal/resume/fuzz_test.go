package resume_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"taskprov/internal/mofka"
	mcluster "taskprov/internal/mofka/cluster"
	"taskprov/internal/resume"
)

// sidecars are the JSON files beside a data dir's event log that a resume
// decodes before it trusts anything else.
var sidecars = []string{resume.CheckpointFile, resume.LineageFile, "cluster.json"}

// FuzzSidecars: whatever bytes sit in checkpoint.json, attempts.json or
// cluster.json, loading them and reconstructing a resume state over them
// returns — a state or an error — without panicking, and without sizing a
// loop from a number the file supplied (an implausible cluster shape is
// refused). What a loader accepts it writes back to an equal file. The seeds
// in testdata/sidecars are the files seeded `taskprov run -data-dir` runs left
// (the checkpoint cut down to a few tasks and blobs).
func FuzzSidecars(f *testing.F) {
	for i, name := range sidecars {
		seed, err := os.ReadFile(filepath.Join("testdata", "sidecars", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), seed)
		f.Add(uint8(i), seed[:len(seed)/2])
	}
	f.Add(uint8(0), []byte(`{"attempt":2,"graphs":null,"tasks":{"k":{"graph_id":-1,"files":[{}]}},"blobs":[{"owner":-3}]}`))
	f.Add(uint8(1), []byte(`{"attempts":[{"attempt":-1},{"attempt":9007199254740993,"completed":true}]}`))
	f.Add(uint8(2), []byte(`{"brokers":2147483647,"replication_factor":1,"quorum":1}`))
	f.Add(uint8(2), []byte(`{"brokers":-1}`))
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		dir := t.TempDir()
		name := sidecars[int(which)%len(sidecars)]
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		switch name {
		case resume.CheckpointFile:
			cp, err := resume.LoadCheckpoint(dir)
			if err != nil {
				break
			}
			if cp == nil || cp.Graphs == nil || cp.Tasks == nil {
				t.Fatalf("accepted checkpoint is incomplete: %+v", cp)
			}
			again := t.TempDir()
			if err := resume.WriteCheckpoint(again, cp); err != nil {
				t.Fatal(err)
			}
			back, err := resume.LoadCheckpoint(again)
			if err != nil {
				t.Fatalf("rewritten checkpoint refused: %v", err)
			}
			if a, b := mustJSON(t, cp), mustJSON(t, back); !bytes.Equal(a, b) {
				t.Fatalf("checkpoint changed across a rewrite:\n%s\n%s", a, b)
			}
		case resume.LineageFile:
			l, err := resume.LoadLineage(dir)
			if err != nil {
				break
			}
			next, err := resume.AppendAttempt(dir, resume.Attempt{Attempt: l.Last().Attempt + 1})
			if err != nil || len(next.Attempts) != len(l.Attempts)+1 {
				t.Fatalf("append to an accepted lineage of %d: %d attempts, %v", len(l.Attempts), len(next.Attempts), err)
			}
		default:
			// No node directory exists, so an accepted shape has nothing to
			// merge; what matters is that the open comes back.
			if b, err := mcluster.OpenLog(dir); err == nil {
				_ = b.Close()
				t.Fatal("a cluster dir without node directories opened")
			}
		}
		// The log itself is empty here: the sidecars alone drive this.
		_, _ = resume.ReconstructWith(dir, func(string) (*mofka.Broker, error) {
			return mofka.NewStandaloneBroker(), nil
		})
	})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
