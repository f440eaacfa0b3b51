package workloads

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/provenance"
	"taskprov/internal/resume"
)

// execSummary summarizes a run's execution stream: per-key record count and
// latest output size.
func execSummary(t *testing.T, art *core.RunArtifacts) (counts map[dask.TaskKey]int, sizes map[dask.TaskKey]int64) {
	t.Helper()
	metas, err := provenance.Drain(art.Broker, provenance.TopicExecutions, provenance.DecodeExecution)
	if err != nil {
		t.Fatal(err)
	}
	counts = make(map[dask.TaskKey]int)
	sizes = make(map[dask.TaskKey]int64)
	stops := make(map[dask.TaskKey]float64)
	for _, e := range metas {
		counts[e.Key]++
		if s := e.Stop.Seconds(); s >= stops[e.Key] {
			stops[e.Key] = s
			sizes[e.Key] = e.OutputSize
		}
	}
	return counts, sizes
}

// killAndResume runs one workload to a baseline, kills the coordinator at
// frac of the baseline wall time, resumes from the data dir, and checks the
// merged run reproduces the baseline's provenance summaries with no
// re-execution of still-resolvable outputs.
// racy marks files whose final size is a last-truncator-wins race between
// store tasks even across uninterrupted runs with different schedules (the
// imageprocessing shard files: every store-zarr opens with CREATE and writes
// at its own image offset). Resume only guarantees the manifest for files
// with schedule-independent final content.
func killAndResume(t *testing.T, name string, seed uint64, frac float64, baseArt *core.RunArtifacts, baseSizes map[dask.TaskKey]int64, racy func(path string) bool) {
	t.Helper()
	dir := t.TempDir() + "/run"

	wf, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSession(name, "job-"+name, seed)
	cfg.MofkaDataDir = dir
	cfg.ChaosSpec = fmt.Sprintf("scheduler at=%s", time.Duration(float64(baseArt.WallTime)*frac))
	_, err = core.Run(cfg, wf)
	var crash *core.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("%s kill at %.0f%%: expected CrashError, got %v", name, 100*frac, err)
	}

	pre, err := resume.Reconstruct(dir)
	if err != nil {
		t.Fatal(err)
	}

	rwf, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := DefaultSession(name, "job-"+name, seed)
	rcfg.ResumeFrom = dir
	art, err := core.Run(rcfg, rwf)
	if err != nil {
		t.Fatalf("%s resume after kill at %.0f%%: %v", name, 100*frac, err)
	}

	// Merged provenance summaries match the uninterrupted baseline.
	for _, m := range []struct {
		what      string
		got, want int
	}{
		{what: "task graphs", got: mustInt(t, art.TaskGraphs), want: mustInt(t, baseArt.TaskGraphs)},
		{what: "distinct tasks", got: mustInt(t, art.DistinctTasks), want: mustInt(t, baseArt.DistinctTasks)},
	} {
		if m.got != m.want {
			t.Errorf("%s kill at %.0f%%: merged %s = %d, baseline %d", name, 100*frac, m.what, m.got, m.want)
		}
	}
	// The final filesystem matches the uninterrupted run's: same file set,
	// and identical sizes for every file with schedule-independent content —
	// memoized tasks' outputs were replayed from recorded file effects, the
	// rest re-ran their own I/O. (Darshan log counts cannot be compared —
	// the killed attempt's in-memory logs die with its processes, exactly
	// as real Darshan logs written at finalize would.)
	for p, sz := range baseArt.Files {
		got, ok := art.Files[p]
		if !ok {
			t.Errorf("%s kill at %.0f%%: final filesystem lost %s", name, 100*frac, p)
			continue
		}
		if got != sz && (racy == nil || !racy(p)) {
			t.Errorf("%s kill at %.0f%%: %s = %d bytes, baseline %d", name, 100*frac, p, got, sz)
		}
	}
	for p := range art.Files {
		if _, ok := baseArt.Files[p]; !ok {
			t.Errorf("%s kill at %.0f%%: spurious file %s", name, 100*frac, p)
		}
	}
	if got, want := art.DistinctFiles(), baseArt.DistinctFiles(); got > want {
		t.Errorf("%s kill at %.0f%%: resumed attempt touched %d distinct files, baseline %d", name, 100*frac, got, want)
	}

	// Every baseline task is evidenced with its baseline output size, by
	// execution record or by memo.
	counts, sizes := execSummary(t, art)
	for k, sz := range baseSizes {
		if got, ok := sizes[k]; ok {
			if got != sz {
				t.Fatalf("%s: task %s output = %d, baseline %d", name, k, got, sz)
			}
			continue
		}
		m, ok := pre.Memos[k]
		if !ok {
			t.Fatalf("%s: merged provenance lost task %s", name, k)
		}
		if m.Size != sz {
			t.Fatalf("%s: task %s memoized size = %d, baseline %d", name, k, m.Size, sz)
		}
	}
	// No re-execution of tasks whose output was still resolvable.
	for k, m := range pre.Memos {
		if !m.Resolvable {
			continue
		}
		if counts[k] != pre.ExecCounts[k] {
			t.Fatalf("%s: resolvable task %s re-executed: %d records, %d before resume",
				name, k, counts[k], pre.ExecCounts[k])
		}
	}

	// The attempt boundary is recorded.
	if art.Meta.Attempt != 2 || art.Meta.ResumedFrom != 1 {
		t.Errorf("%s: metadata attempt = %d resumed_from = %d", name, art.Meta.Attempt, art.Meta.ResumedFrom)
	}
	lin, err := resume.LoadLineage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(lin.Attempts) != 2 || !lin.Last().Completed {
		t.Errorf("%s: lineage = %+v", name, lin)
	}
}

func mustInt(t *testing.T, f func() (int, error)) int {
	t.Helper()
	n, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestResumeEquivalenceImageProcessing kills the whole session at three
// distinct points of an ImageProcessing run and resumes each — the paper
// workload form of the resumption acceptance test.
func TestResumeEquivalenceImageProcessing(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow runs")
	}
	const seed = 3
	wf, err := New("imageprocessing")
	if err != nil {
		t.Fatal(err)
	}
	baseArt, err := core.Run(DefaultSession("imageprocessing", "job-imageprocessing", seed), wf)
	if err != nil {
		t.Fatal(err)
	}
	_, baseSizes := execSummary(t, baseArt)
	for _, frac := range []float64{0.25, 0.55, 0.85} {
		frac := frac
		t.Run(fmt.Sprintf("kill-at-%.0f%%", 100*frac), func(t *testing.T) {
			killAndResume(t, "imageprocessing", seed, frac, baseArt, baseSizes, func(p string) bool {
				return strings.Contains(p, "/out/stage-")
			})
		})
	}
}

// TestResumeEquivalenceXGBoost does the same for the xgboost workload (74
// graphs, >10k tasks): one mid-run kill point keeps the runtime in check
// while exercising resumption across many completed and in-flight graphs.
func TestResumeEquivalenceXGBoost(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow runs")
	}
	const seed = 3
	wf, err := New("xgboost")
	if err != nil {
		t.Fatal(err)
	}
	baseArt, err := core.Run(DefaultSession("xgboost", "job-xgboost", seed), wf)
	if err != nil {
		t.Fatal(err)
	}
	_, baseSizes := execSummary(t, baseArt)
	killAndResume(t, "xgboost", seed, 0.55, baseArt, baseSizes, nil)
}
