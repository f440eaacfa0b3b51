package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"taskprov/internal/dask"
	"taskprov/internal/posixio"
	"taskprov/internal/provenance"
	"taskprov/internal/resume"
	"taskprov/internal/sim"
)

// resumeWorkflow is the resumption acceptance workload: three sequential
// graphs chained by cross-graph dependencies, with proxied large outputs,
// small direct outputs, and file-writing sinks — so a coordinator kill
// leaves behind every kind of frontier (resolvable blobs, lost in-memory
// results, completed file effects) for resume to reconstruct.
type resumeWorkflow struct {
	graphs int
	width  int

	// gathered records, per graph, the total bytes the client gathered from
	// the graph's outputs — the "graph results" resume must reproduce.
	gathered []int64
	errs     []string
}

func (r *resumeWorkflow) Name() string { return "resume-accept" }

func (r *resumeWorkflow) Stage(env *Env) {
	for i := 0; i < r.width; i++ {
		env.PFS.CreateNow(fmt.Sprintf("/lus/in/r%03d", i), 4<<20)
	}
}

func (r *resumeWorkflow) Run(p *sim.Proc, cl *dask.Client, env *Env) {
	prevSink := dask.TaskKey("")
	for gid := 1; gid <= r.graphs; gid++ {
		gid := gid
		g := dask.NewGraph(gid)
		var mids []dask.TaskKey
		for i := 0; i < r.width; i++ {
			i := i
			key := dask.TaskKey(fmt.Sprintf("g%d-src-%02d", gid, i))
			var deps []dask.TaskKey
			if prevSink != "" {
				deps = append(deps, prevSink)
			}
			g.Add(&dask.TaskSpec{
				Key: key, Deps: deps,
				OutputSize: 1 << 20, // above the proxy threshold: published as a blob
				Run: func(ctx *dask.TaskContext) {
					f, err := ctx.Open(fmt.Sprintf("/lus/in/r%03d", i), posixio.RDONLY)
					if err != nil {
						panic(err)
					}
					f.Read(ctx.Proc(), 1<<20)
					f.Close(ctx.Proc())
					ctx.Compute(sim.Milliseconds(700))
				},
			})
		}
		for i := 0; i < r.width; i++ {
			key := dask.TaskKey(fmt.Sprintf("g%d-mid-%02d", gid, i))
			mids = append(mids, key)
			g.Add(&dask.TaskSpec{
				Key: key,
				Deps: []dask.TaskKey{
					dask.TaskKey(fmt.Sprintf("g%d-src-%02d", gid, i)),
					dask.TaskKey(fmt.Sprintf("g%d-src-%02d", gid, (i+1)%r.width)),
				},
				EstDuration: sim.Milliseconds(500),
				OutputSize:  512 << 10, // proxied too
			})
		}
		sink := dask.TaskKey(fmt.Sprintf("g%d-sink", gid))
		g.Add(&dask.TaskSpec{
			Key: sink, Deps: mids,
			OutputSize: 64 << 10, // below the threshold: direct, lost on crash
			Run: func(ctx *dask.TaskContext) {
				ctx.Compute(sim.Milliseconds(200))
				f, err := ctx.Open(fmt.Sprintf("/lus/out/g%d.bin", gid), posixio.WRONLY|posixio.CREATE)
				if err != nil {
					panic(err)
				}
				f.Write(ctx.Proc(), 256<<10)
				f.Close(ctx.Proc())
			},
		})
		if prevSink != "" {
			g.AddExternal(prevSink)
		}
		cl.SubmitAndWait(p, g)
		r.errs = append(r.errs, cl.GraphError(gid))
		r.gathered = append(r.gathered, cl.Gather(p, append(append([]dask.TaskKey{}, mids...), sink)))
		prevSink = sink
	}
}

func resumeTestSession(seed uint64) SessionConfig {
	cfg := testSession(seed)
	cfg.Dask.ProxyThresholdBytes = 256 << 10
	return cfg
}

// drainExecs summarizes a merged execution stream: per-key record count and
// the output size of each key's latest record.
func drainExecs(t *testing.T, art *RunArtifacts) (counts map[dask.TaskKey]int, sizes map[dask.TaskKey]int64) {
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

// TestResumeEquivalence is the strong acceptance form: kill the whole
// coordinator at three distinct points (early / mid / late), resume each
// from its data dir, and require the merged provenance to yield the same
// final graph results and output sizes as an uninterrupted run — with no
// task re-executed whose output was still resolvable from a surviving
// proxy-store blob.
func TestResumeEquivalence(t *testing.T) {
	const seed = 11
	base := &resumeWorkflow{graphs: 3, width: 8}
	baseArt, err := Run(resumeTestSession(seed), base)
	if err != nil {
		t.Fatal(err)
	}
	for i, ge := range base.errs {
		if ge != "" {
			t.Fatalf("baseline graph %d erred: %s", i+1, ge)
		}
	}
	_, baseSizes := drainExecs(t, baseArt)
	baseGraphs, err := baseArt.TaskGraphs()
	if err != nil {
		t.Fatal(err)
	}

	for _, frac := range []float64{0.25, 0.55, 0.85} {
		frac := frac
		t.Run(fmt.Sprintf("kill-at-%.0f%%", 100*frac), func(t *testing.T) {
			dir := t.TempDir() + "/run"
			killAt := time.Duration(float64(baseArt.WallTime) * frac)

			cfg := resumeTestSession(seed)
			cfg.MofkaDataDir = dir
			cfg.ChaosSpec = fmt.Sprintf("scheduler at=%s", killAt)
			_, err := Run(cfg, &resumeWorkflow{graphs: 3, width: 8})
			var crash *CrashError
			if !errors.As(err, &crash) {
				t.Fatalf("expected CrashError, got %v", err)
			}
			if crash.DataDir != dir || crash.Attempt != 1 {
				t.Fatalf("crash = %+v", crash)
			}

			// Pre-resume snapshot: which outputs are still resolvable, and
			// how many executions the surviving log records for them.
			pre, err := resume.Reconstruct(dir)
			if err != nil {
				t.Fatal(err)
			}
			if pre.Attempt != 2 {
				t.Fatalf("reconstructed attempt = %d", pre.Attempt)
			}

			rcfg := resumeTestSession(seed)
			rcfg.ResumeFrom = dir
			resumed := &resumeWorkflow{graphs: 3, width: 8}
			art, err := Run(rcfg, resumed)
			if err != nil {
				t.Fatal(err)
			}

			// Identical final graph results.
			for i, ge := range resumed.errs {
				if ge != "" {
					t.Fatalf("resumed graph %d erred: %s", i+1, ge)
				}
			}
			if len(resumed.gathered) != len(base.gathered) {
				t.Fatalf("gathered %d graphs, baseline %d", len(resumed.gathered), len(base.gathered))
			}
			for i := range base.gathered {
				if resumed.gathered[i] != base.gathered[i] {
					t.Fatalf("graph %d result: %d bytes, baseline %d", i+1, resumed.gathered[i], base.gathered[i])
				}
			}

			// Merged provenance covers every task with baseline sizes: either
			// an execution record survives (or was re-made), or the task was
			// memoized — its record died in an unflushed batch, but the
			// checkpoint/publish evidence that proved completion carries the
			// same output size.
			counts, sizes := drainExecs(t, art)
			for k, sz := range baseSizes {
				if got, ok := sizes[k]; ok {
					if got != sz {
						t.Fatalf("task %s output = %d, baseline %d", k, got, sz)
					}
					continue
				}
				m, ok := pre.Memos[k]
				if !ok {
					t.Fatalf("merged provenance lost task %s entirely", k)
				}
				if m.Size != sz {
					t.Fatalf("task %s memoized size = %d, baseline %d", k, m.Size, sz)
				}
			}
			// No re-execution of tasks whose output was still resolvable.
			for k, m := range pre.Memos {
				if !m.Resolvable {
					continue
				}
				if counts[k] != pre.ExecCounts[k] {
					t.Fatalf("resolvable task %s re-executed: %d records, %d before resume",
						k, counts[k], pre.ExecCounts[k])
				}
			}
			// Merged summaries match the uninterrupted baseline.
			if g, err := art.TaskGraphs(); err != nil || g != baseGraphs {
				t.Fatalf("merged task graphs = %d (%v), baseline %d", g, err, baseGraphs)
			}
			if art.Proxy.Resident != baseArt.Proxy.Resident || art.Proxy.Live != baseArt.Proxy.Live {
				t.Fatalf("proxy residency %d bytes/%d blobs, baseline %d/%d",
					art.Proxy.Resident, art.Proxy.Live, baseArt.Proxy.Resident, baseArt.Proxy.Live)
			}
			// The final filesystem is byte-identical to the uninterrupted
			// run's: memoized tasks' file effects were replayed, the rest
			// re-ran their own I/O.
			if !reflect.DeepEqual(art.Files, baseArt.Files) {
				t.Fatalf("final filesystem manifest differs from baseline (%d files vs %d)",
					len(art.Files), len(baseArt.Files))
			}

			// The attempt boundary is provenance: lineage closed, metadata
			// stamped, session_resumed on the warnings topic.
			lin, err := resume.LoadLineage(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(lin.Attempts) != 2 || !lin.Last().Completed || lin.Last().Attempt != 2 {
				t.Fatalf("lineage = %+v", lin)
			}
			if art.Meta.Attempt != 2 || art.Meta.ResumedFrom != 1 {
				t.Fatalf("metadata attempt = %d resumed_from = %d", art.Meta.Attempt, art.Meta.ResumedFrom)
			}
			warns, err := provenance.Drain(art.Broker, provenance.TopicWarnings, provenance.DecodeWarning)
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			for _, w := range warns {
				if w.Kind == dask.WarnSessionResumed {
					seen++
				}
			}
			if seen != 1 {
				t.Fatalf("session_resumed warnings = %d, want 1", seen)
			}

			// A completed run refuses a second resume.
			if _, err := resume.Reconstruct(dir); !errors.Is(err, resume.ErrCompleted) {
				t.Fatalf("re-resume of completed run: %v", err)
			}
		})
	}
}

// TestSchedulerKillAtTask covers the chaos "scheduler at-task=KEY" trigger:
// the coordinator dies when the named task's execution record is observed,
// and the run resumes to the same results.
func TestSchedulerKillAtTask(t *testing.T) {
	const seed = 23
	base := &resumeWorkflow{graphs: 2, width: 6}
	if _, err := Run(resumeTestSession(seed), base); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir() + "/run"
	cfg := resumeTestSession(seed)
	cfg.MofkaDataDir = dir
	cfg.ChaosSpec = "scheduler at-task=g1-sink"
	_, err := Run(cfg, &resumeWorkflow{graphs: 2, width: 6})
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("expected CrashError, got %v", err)
	}

	rcfg := resumeTestSession(seed)
	rcfg.ResumeFrom = dir
	resumed := &resumeWorkflow{graphs: 2, width: 6}
	if _, err := Run(rcfg, resumed); err != nil {
		t.Fatal(err)
	}
	for i := range base.gathered {
		if resumed.gathered[i] != base.gathered[i] {
			t.Fatalf("graph %d result: %d bytes, baseline %d", i+1, resumed.gathered[i], base.gathered[i])
		}
	}
}

// TestSessionCloseIdempotent: Close must be safe on nil, on a
// partially-constructed session, after success, and when called repeatedly.
func TestSessionCloseIdempotent(t *testing.T) {
	var nilSession *Session
	if err := nilSession.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}

	s, err := NewSession(testSession(5), &toyWorkflow{files: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// A construction failure must not leave a half-open session behind:
	// NewSession closes what it built and reports the error.
	bad := testSession(5)
	bad.ChaosSpec = "scheduler"
	if _, err := NewSession(bad, &toyWorkflow{files: 2}, nil); err == nil {
		t.Fatal("invalid chaos spec accepted")
	}

	// Close after a full Execute, with a durable dir in play.
	cfg := testSession(6)
	cfg.MofkaDataDir = t.TempDir() + "/run"
	s2, err := NewSession(cfg, &toyWorkflow{files: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	art, err := s2.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close after Execute: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("repeat Close after Execute: %v", err)
	}
	// Published events stay readable after Close.
	if n, err := art.DistinctTasks(); err != nil || n == 0 {
		t.Fatalf("post-Close read: %d tasks, %v", n, err)
	}
}

// TestResumeRefusals: resuming a directory without a log, and double-use of
// a data dir without ResumeFrom, both fail loudly.
func TestResumeRefusals(t *testing.T) {
	cfg := testSession(7)
	cfg.ResumeFrom = t.TempDir()
	if _, err := Run(cfg, &toyWorkflow{files: 1}); err == nil {
		t.Fatal("resumed from an empty directory")
	}

	dir := t.TempDir() + "/run"
	cfg2 := testSession(7)
	cfg2.MofkaDataDir = dir
	if _, err := Run(cfg2, &toyWorkflow{files: 1}); err != nil {
		t.Fatal(err)
	}
	cfg3 := testSession(7)
	cfg3.MofkaDataDir = dir
	if _, err := Run(cfg3, &toyWorkflow{files: 1}); err == nil {
		t.Fatal("second run appended to an existing event log")
	}
	// And a cleanly completed run refuses ResumeFrom too.
	cfg4 := testSession(7)
	cfg4.ResumeFrom = dir
	if _, err := Run(cfg4, &toyWorkflow{files: 1}); !errors.Is(err, resume.ErrCompleted) {
		t.Fatalf("resume of completed run: %v", err)
	}
}

// TestCrashedSessionsLeaveNoGoroutines: a chaos-killed coordinator stops the
// kernel with the client and every executing task parked mid-body. Closing
// the session (Run does, on a crash) must unwind them all; repeated crashed
// runs leave the goroutine count where it started — on a durable broker and
// on a durable cluster too, where closing the session is also what stops
// each broker's committer.
func TestCrashedSessionsLeaveNoGoroutines(t *testing.T) {
	const seed, runs = 11, 8
	baseArt, err := Run(resumeTestSession(seed), &resumeWorkflow{graphs: 2, width: 8})
	if err != nil {
		t.Fatal(err)
	}
	killAt := time.Duration(float64(baseArt.WallTime) * 0.3)

	for _, tc := range []struct {
		name      string
		configure func(t *testing.T, cfg *SessionConfig)
	}{
		{"in-memory", func(*testing.T, *SessionConfig) {}},
		{"durable", func(t *testing.T, cfg *SessionConfig) { cfg.MofkaDataDir = t.TempDir() }},
		{"durable-cluster", func(t *testing.T, cfg *SessionConfig) {
			cfg.MofkaDataDir = t.TempDir()
			cfg.ClusterBrokers, cfg.ClusterReplication = 3, 2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < runs; i++ {
				cfg := resumeTestSession(seed)
				tc.configure(t, &cfg)
				cfg.ChaosSpec = fmt.Sprintf("scheduler at=%s", killAt)
				_, err := Run(cfg, &resumeWorkflow{graphs: 2, width: 8})
				var crash *CrashError
				if !errors.As(err, &crash) {
					t.Fatalf("run %d: expected CrashError, got %v", i, err)
				}
			}
			// Goroutines that were told to stop may take a moment to be gone.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d goroutines before %d crashed sessions, %d after", before, runs, after)
			}
		})
	}
}
