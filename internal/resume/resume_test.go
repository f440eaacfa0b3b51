// Package resume_test reconstructs the frontier of sessions that chaos killed
// mid-run. It is an external test package because producing such a data dir
// takes internal/core, which imports resume.
package resume_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	mcluster "taskprov/internal/mofka/cluster"
	"taskprov/internal/mofka/wal"
	"taskprov/internal/posixio"
	"taskprov/internal/resume"
	"taskprov/internal/sim"
)

// chained is three graphs, each reading inputs, reducing them and writing a
// file, each depending on the one before: a kill part-way leaves proxied
// blobs, lost direct results and completed file effects behind.
type chained struct{}

func (chained) Name() string { return "resume-chained" }

func (chained) Stage(env *core.Env) {
	for i := 0; i < 6; i++ {
		env.PFS.CreateNow(fmt.Sprintf("/lus/in/r%02d", i), 2<<20)
	}
}

func (chained) Run(p *sim.Proc, cl *dask.Client, env *core.Env) {
	prev := dask.TaskKey("")
	for gid := 1; gid <= 3; gid++ {
		gid := gid
		g := dask.NewGraph(gid)
		var srcs []dask.TaskKey
		for i := 0; i < 6; i++ {
			i := i
			key := dask.TaskKey(fmt.Sprintf("g%d-src-%02d", gid, i))
			srcs = append(srcs, key)
			var deps []dask.TaskKey
			if prev != "" {
				deps = []dask.TaskKey{prev}
			}
			g.Add(&dask.TaskSpec{Key: key, Deps: deps, OutputSize: 1 << 20, Run: func(ctx *dask.TaskContext) {
				f, err := ctx.Open(fmt.Sprintf("/lus/in/r%02d", i), posixio.RDONLY)
				if err != nil {
					panic(err)
				}
				f.Read(ctx.Proc(), 1<<20)
				f.Close(ctx.Proc())
				ctx.Compute(sim.Milliseconds(600))
			}})
		}
		sink := dask.TaskKey(fmt.Sprintf("g%d-sink", gid))
		g.Add(&dask.TaskSpec{Key: sink, Deps: srcs, OutputSize: 32 << 10, Run: func(ctx *dask.TaskContext) {
			ctx.Compute(sim.Milliseconds(200))
			f, err := ctx.Open(fmt.Sprintf("/lus/out/g%d.bin", gid), posixio.WRONLY|posixio.CREATE)
			if err != nil {
				panic(err)
			}
			f.Write(ctx.Proc(), 128<<10)
			f.Close(ctx.Proc())
		}})
		if prev != "" {
			g.AddExternal(prev)
		}
		cl.SubmitAndWait(p, g)
		prev = sink
	}
}

// killedDir runs the workflow into dir with the coordinator killed at 5 s
// of virtual time, on a standalone broker or a 3-broker RF2 cluster.
func killedDir(t *testing.T, dir string, brokers int) {
	t.Helper()
	cfg := core.DefaultSessionConfig("job-resume", 7)
	cfg.Platform.NodeSpeedCV = 0
	cfg.PFS.InterferenceLoad = 0
	cfg.Dask.WorkersPerNode = 2
	cfg.Dask.ThreadsPerWorker = 2
	cfg.Dask.ProxyThresholdBytes = 256 << 10
	// Small batches, so most of the log is flushed when the kill lands (the
	// unflushed tails die with the producers), and a checkpoint before it.
	cfg.MofkaBatchSize = 4
	cfg.CheckpointInterval = time.Second
	cfg.MofkaDataDir = dir
	cfg.ChaosSpec = "scheduler at=5000ms"
	if brokers > 1 {
		cfg.ClusterBrokers, cfg.ClusterReplication = brokers, 2
	}
	_, err := core.Run(cfg, chained{})
	var crash *core.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("the session was to be killed mid-run, got %v", err)
	}
}

// serialOpen is the reference open: every replica log of every partition
// read whole through the WAL's public replay, one after the other, the
// longest published into a fresh broker one event at a time.
func serialOpen(dataDir string) (*mofka.Broker, error) {
	dirs := []string{dataDir}
	if mcluster.IsClusterDir(dataDir) {
		var err error
		if dirs, err = filepath.Glob(filepath.Join(dataDir, "node-*")); err != nil {
			return nil, err
		}
		sort.Strings(dirs)
	}
	view := mofka.NewStandaloneBroker()
	for _, dir := range dirs {
		cfgs, err := filepath.Glob(filepath.Join(dir, "topics", "*", "topic.json"))
		if err != nil {
			return nil, err
		}
		for _, path := range cfgs {
			raw, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			var cfg mofka.TopicConfig
			if err := json.Unmarshal(raw, &cfg); err != nil {
				return nil, err
			}
			if _, err := view.OpenTopic(cfg.Name); err == nil {
				continue // merged when the first directory holding it was
			}
			tp, err := view.CreateTopic(cfg)
			if err != nil {
				return nil, err
			}
			for pi := 0; pi < cfg.Partitions; pi++ {
				var longest []wal.Record
				for _, replica := range dirs {
					l, err := wal.Open(filepath.Join(replica, "topics", cfg.Name, fmt.Sprintf("p%04d", pi)), wal.Options{ReadOnly: true})
					if err != nil {
						return nil, err
					}
					var recs []wal.Record
					err = l.Replay(0, func(_ uint64, r wal.Record) bool {
						recs = append(recs, wal.Record{Meta: append([]byte(nil), r.Meta...), Data: append([]byte(nil), r.Data...)})
						return true
					})
					if err != nil {
						return nil, err
					}
					if err := l.Close(); err != nil {
						return nil, err
					}
					if len(recs) > len(longest) {
						longest = recs
					}
				}
				p, err := tp.Partition(pi)
				if err != nil {
					return nil, err
				}
				for _, r := range longest {
					if err := p.Append([][]byte{r.Meta}, [][]byte{r.Data}); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return view, nil
}

// TestReconstructDeterministicAndEqualsReferenceOpen: reconstructing a
// chaos-killed dir gives the same State every time, and the State a
// straightforward serial load of the same directory gives.
func TestReconstructDeterministicAndEqualsReferenceOpen(t *testing.T) {
	for _, brokers := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d-broker", brokers), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "run")
			killedDir(t, dir, brokers)
			first, err := resume.Reconstruct(dir)
			if err != nil {
				t.Fatal(err)
			}
			if first.Attempt != 2 || first.ResumedFrom != 1 || len(first.Memos) == 0 || len(first.Memos) >= 21 ||
				len(first.FileEffects) == 0 || first.ResumeBase <= sim.Seconds(5) {
				t.Fatalf("the kill did not land mid-run: attempt %d from %d, %d memos, %d file effects, base %v",
					first.Attempt, first.ResumedFrom, len(first.Memos), len(first.FileEffects), first.ResumeBase)
			}
			again, err := resume.Reconstruct(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("two reconstructions of one dir differ:\n%+v\n%+v", first, again)
			}
			ref, err := resume.ReconstructWith(dir, serialOpen)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, ref) {
				t.Fatalf("reconstruction differs from the one over the serial reference open:\n%+v\n%+v", first, ref)
			}
		})
	}
}
