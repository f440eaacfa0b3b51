package core

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taskprov/internal/provenance"
)

// storedBytes reads what a run left in its data dir that the fsync policy
// must not influence: every segment file and every cursor store, keyed by
// path below root.
func storedBytes(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if !strings.HasSuffix(rel, ".seg") && d.Name() != "cursors.json" {
			return nil
		}
		b, err := os.ReadFile(path)
		out[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSyncPolicyLeavesSameBytes: under `batch` a partition's commit runs on
// the broker's committer goroutine, under `interval` and `never` inline in the
// submit. Which one it was leaves no trace: one seeded session stores the
// same segment bytes and cursors and serves the same topics — warnings
// included, so the same retries, degraded spells and drops at the same
// virtual times — under all three, standalone and on a replicated cluster,
// with a healthy log and with one that refuses forty appends. Two `batch`
// runs agree with each other for the same reason.
func TestSyncPolicyLeavesSameBytes(t *testing.T) {
	type outcome struct {
		files  map[string]string
		topics map[string][]string
	}
	run := func(t *testing.T, policy string, clustered bool, chaosSpec string) outcome {
		t.Helper()
		cfg := testSession(5)
		cfg.MofkaDataDir = t.TempDir()
		cfg.MofkaSyncPolicy = policy
		cfg.MofkaBatchSize = 8 // many batches, so the fault meets many appends
		cfg.LiveMonitor = true
		cfg.ChaosSpec = chaosSpec
		if clustered {
			cfg.ClusterBrokers, cfg.ClusterReplication = 3, 2
		}
		wf := &crashWorkflow{width: 32}
		art, err := Run(cfg, wf)
		if err != nil {
			t.Fatal(err)
		}
		if wf.graphErr != "" {
			t.Fatalf("graph erred: %s", wf.graphErr)
		}
		out := outcome{files: storedBytes(t, cfg.MofkaDataDir), topics: map[string][]string{}}
		for _, topic := range provenance.AllTopics() {
			out.topics[topic] = drainJSON(t, art, topic)
		}
		if len(out.files) == 0 || len(out.topics[provenance.TopicTransitions]) == 0 {
			t.Fatalf("run stored %d files and %d transitions", len(out.files), len(out.topics[provenance.TopicTransitions]))
		}
		return out
	}
	same := func(t *testing.T, what string, got, want outcome) {
		t.Helper()
		if len(got.files) != len(want.files) {
			t.Errorf("%s: %d stored files, want %d", what, len(got.files), len(want.files))
		}
		for path, b := range want.files {
			if got.files[path] != b {
				t.Errorf("%s: %s differs (%d bytes, want %d)", what, path, len(got.files[path]), len(b))
			}
		}
		for topic, evs := range want.topics {
			if strings.Join(got.topics[topic], "\n") != strings.Join(evs, "\n") {
				t.Errorf("%s: topic %s differs (%d events, want %d)", what, topic, len(got.topics[topic]), len(evs))
			}
		}
	}
	for _, tc := range []struct {
		name      string
		clustered bool
		chaos     string
	}{
		{"standalone", false, ""},
		{"standalone-wal-fault", false, "wal topic=task-transitions after=3 count=40"},
		{"cluster", true, ""},
		{"cluster-wal-fault", true, "wal topic=task-transitions after=3 count=40"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := run(t, "batch", tc.clustered, tc.chaos)
			if _, ok := want.files["cursors.json"]; !ok && !tc.clustered {
				t.Fatal("the live monitor left no cursors.json to compare")
			}
			if tc.chaos != "" {
				degraded := false
				for _, w := range want.topics[provenance.TopicWarnings] {
					degraded = degraded || strings.Contains(w, "producer_degraded")
				}
				if !degraded {
					t.Fatal("the append fault never degraded a producer: the scenario tests nothing")
				}
			}
			same(t, "batch again", run(t, "batch", tc.clustered, tc.chaos), want)
			same(t, "interval", run(t, "interval", tc.clustered, tc.chaos), want)
			same(t, "never", run(t, "never", tc.clustered, tc.chaos), want)
		})
	}
}
