package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"taskprov/internal/dask"
	"taskprov/internal/resume"
	"taskprov/internal/sim"
)

// randomResumeWorkflow submits a sequence of seeded random layered DAGs and
// gathers each graph's leaves — the workload side of the resumption property
// test. Rebuilding the graphs from the seed inside Run keeps the killed and
// resumed incarnations byte-identical to the baseline.
type randomResumeWorkflow struct {
	seed     uint64
	graphs   int
	gathered []int64
	errs     []string
}

func (w *randomResumeWorkflow) Name() string { return "resume-prop" }

func (w *randomResumeWorkflow) Stage(env *Env) {}

func (w *randomResumeWorkflow) Run(p *sim.Proc, cl *dask.Client, env *Env) {
	gen := sim.NewRNG(w.seed).Split("dag")
	for gid := 1; gid <= w.graphs; gid++ {
		g := randomResumeGraph(gid, gen.Split(fmt.Sprintf("g%d", gid)))
		cl.SubmitAndWait(p, g)
		w.errs = append(w.errs, cl.GraphError(gid))
		w.gathered = append(w.gathered, cl.Gather(p, graphLeaves(g)))
	}
}

// graphLeaves returns the graph's outputs, the keys no task of it depends
// on, sorted.
func graphLeaves(g *dask.Graph) []dask.TaskKey {
	used := map[dask.TaskKey]bool{}
	keys := g.Keys()
	for _, k := range keys {
		spec, _ := g.Task(k)
		for _, d := range spec.Deps {
			used[d] = true
		}
	}
	var out []dask.TaskKey
	for _, k := range keys {
		if !used[k] {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// randomResumeGraph builds one layered random DAG with keys namespaced by
// graph ID and a mix of proxied and direct output sizes.
func randomResumeGraph(gid int, rng *sim.RNG) *dask.Graph {
	g := dask.NewGraph(gid)
	layers := rng.IntBetween(2, 4)
	var prev []dask.TaskKey
	for l := 0; l < layers; l++ {
		n := rng.IntBetween(2, 6)
		var cur []dask.TaskKey
		for i := 0; i < n; i++ {
			key := dask.TaskKey(fmt.Sprintf("g%d-%02d-%02d", gid, l, i))
			var deps []dask.TaskKey
			for _, pk := range prev {
				if rng.Bool(0.4) {
					deps = append(deps, pk)
				}
			}
			if l > 0 && len(deps) == 0 {
				deps = append(deps, prev[rng.Intn(len(prev))])
			}
			g.Add(&dask.TaskSpec{
				Key: key, Deps: deps,
				EstDuration: sim.Milliseconds(rng.Uniform(50, 400)),
				// 16 KiB – 512 KiB around the 128 KiB proxy threshold: some
				// outputs are blobs, some direct.
				OutputSize: int64(rng.IntBetween(16, 512)) << 10,
			})
			cur = append(cur, key)
		}
		prev = cur
	}
	return g
}

// TestRandomDAGsSurviveSchedulerKill is the resumption property test: random
// DAGs, a random coordinator kill point, one resume — and whatever the DAG
// or the kill point, the resumed run must reproduce the baseline's gathered
// results, lose no acknowledged output from the merged provenance, never
// re-execute a task whose output was still resolvable, and drain proxy-store
// residency to the baseline's.
func TestRandomDAGsSurviveSchedulerKill(t *testing.T) {
	const trials = 4
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			seed := uint64(4200 + trial)
			cfg := testSession(seed)
			cfg.Dask.ProxyThresholdBytes = 128 << 10

			base := &randomResumeWorkflow{seed: seed, graphs: 2}
			baseArt, err := Run(cfg, base)
			if err != nil {
				t.Fatal(err)
			}
			for i, ge := range base.errs {
				if ge != "" {
					t.Fatalf("baseline graph %d erred: %s", i+1, ge)
				}
			}
			_, baseSizes := drainExecs(t, baseArt)

			frac := sim.NewRNG(seed).Split("kill").Uniform(0.15, 0.85)
			dir := t.TempDir() + "/run"
			kcfg := testSession(seed)
			kcfg.Dask.ProxyThresholdBytes = 128 << 10
			kcfg.MofkaDataDir = dir
			kcfg.ChaosSpec = fmt.Sprintf("scheduler at=%s", time.Duration(float64(baseArt.WallTime)*frac))
			_, err = Run(kcfg, &randomResumeWorkflow{seed: seed, graphs: 2})
			var crash *CrashError
			if !errors.As(err, &crash) {
				t.Fatalf("kill at %.0f%%: expected CrashError, got %v", 100*frac, err)
			}

			pre, err := resume.Reconstruct(dir)
			if err != nil {
				t.Fatal(err)
			}

			rcfg := recordedConfig(t, dir)
			rcfg.ChaosSpec, rcfg.ResumeFrom = "", dir
			resumed := &randomResumeWorkflow{seed: seed, graphs: 2}
			art, err := Run(rcfg, resumed)
			if err != nil {
				t.Fatal(err)
			}

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

			// No acknowledged-output loss: every baseline task is evidenced in
			// the merged provenance, by execution record or by memo.
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
					t.Fatalf("merged provenance lost task %s", k)
				}
				if m.Size != sz {
					t.Fatalf("task %s memoized size = %d, baseline %d", k, m.Size, sz)
				}
			}
			// No duplicate side-effecting execution of resolvable outputs.
			for k, m := range pre.Memos {
				if !m.Resolvable {
					continue
				}
				if counts[k] != pre.ExecCounts[k] {
					t.Fatalf("resolvable task %s re-executed: %d records, %d before resume",
						k, counts[k], pre.ExecCounts[k])
				}
			}
			// Residency drains to the baseline.
			if art.Proxy.Resident != baseArt.Proxy.Resident || art.Proxy.Live != baseArt.Proxy.Live {
				t.Fatalf("proxy residency %d bytes/%d blobs, baseline %d/%d",
					art.Proxy.Resident, art.Proxy.Live, baseArt.Proxy.Resident, baseArt.Proxy.Live)
			}
			// And the final filesystem manifest (empty here — no file I/O in
			// the random DAGs — but the check keeps that symmetric too).
			if !reflect.DeepEqual(art.Files, baseArt.Files) {
				t.Fatalf("final filesystem manifest differs from baseline (%d files vs %d)",
					len(art.Files), len(baseArt.Files))
			}
		})
	}
}
