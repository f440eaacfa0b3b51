package core

import (
	"fmt"
	"testing"

	"taskprov/internal/dask"
	"taskprov/internal/sim"
)

// crashWorkflow is a two-layer graph with cross-partition dependencies,
// sized so a worker kill at 6s lands mid-run with layer-1 outputs (held on
// the victim) still needed by layer 2.
type crashWorkflow struct {
	width    int
	graphErr string
}

func (c *crashWorkflow) Name() string { return "crash" }

func (c *crashWorkflow) Stage(env *Env) {}

func (c *crashWorkflow) Run(p *sim.Proc, cl *dask.Client, env *Env) {
	g := dask.NewGraph(1)
	var mids []dask.TaskKey
	for i := 0; i < c.width; i++ {
		g.Add(&dask.TaskSpec{
			Key:         dask.TaskKey(fmt.Sprintf("src-%02d", i)),
			EstDuration: sim.Seconds(1), OutputSize: 1 << 20,
		})
	}
	for i := 0; i < c.width; i++ {
		k := dask.TaskKey(fmt.Sprintf("mid-%02d", i))
		mids = append(mids, k)
		g.Add(&dask.TaskSpec{
			Key: k,
			Deps: []dask.TaskKey{
				dask.TaskKey(fmt.Sprintf("src-%02d", i)),
				dask.TaskKey(fmt.Sprintf("src-%02d", (i+1)%c.width)),
				dask.TaskKey(fmt.Sprintf("src-%02d", (i+3)%c.width)),
			},
			EstDuration: sim.Milliseconds(1500), OutputSize: 1 << 18,
		})
	}
	g.Add(&dask.TaskSpec{Key: "sink-00", Deps: mids, EstDuration: sim.Milliseconds(100), OutputSize: 256})
	cl.SubmitAndWait(p, g)
	c.graphErr = cl.GraphError(1)
}

// chaosRun executes the crash workflow with one worker killed mid-run and
// restarted, returning the run artifacts and the decoded warning stream.
func chaosRun(t *testing.T, seed uint64) (*RunArtifacts, []dask.Warning) {
	t.Helper()
	cfg := testSession(seed)
	cfg.ChaosSpec = "kill worker=2 at=6s restart=4s"
	wf := &crashWorkflow{width: 32}
	art, err := Run(cfg, wf)
	if err != nil {
		t.Fatal(err)
	}
	if wf.graphErr != "" {
		t.Fatalf("graph erred under chaos: %s", wf.graphErr)
	}
	warns, err := art.Records().Warnings()
	if err != nil {
		t.Fatal(err)
	}
	return art, warns
}

// TestChaosSessionRecovers is the end-to-end acceptance scenario: a session
// configured with a ChaosSpec kills one worker mid-workflow; the run still
// completes and the provenance stream records the full failure/recovery
// story (worker lost, tasks rescheduled, lost keys recomputed, rejoin).
func TestChaosSessionRecovers(t *testing.T) {
	art, warns := chaosRun(t, 21)

	if art.Meta.Instrumentation.Chaos != "kill worker=2 at=6s restart=4s" {
		t.Fatalf("run metadata chaos spec = %q", art.Meta.Instrumentation.Chaos)
	}
	kinds := make(map[dask.WarningKind]int)
	for _, w := range warns {
		kinds[w.Kind]++
	}
	if kinds[dask.WarnWorkerLost] != 1 {
		t.Fatalf("worker_lost events = %d, want 1 (kinds: %v)", kinds[dask.WarnWorkerLost], kinds)
	}
	if kinds[dask.WarnTaskRescheduled] == 0 {
		t.Fatalf("no task_rescheduled events (kinds: %v)", kinds)
	}
	if kinds[dask.WarnKeyRecomputed] == 0 {
		t.Fatalf("no key_recomputed events (kinds: %v)", kinds)
	}
	if kinds[dask.WarnWorkerRejoined] != 1 {
		t.Fatalf("worker_rejoined events = %d, want 1 (kinds: %v)", kinds[dask.WarnWorkerRejoined], kinds)
	}
}

// TestChaosDeterministicReplay: the same seed and chaos spec must reproduce
// the identical failure/recovery event sequence, event for event.
func TestChaosDeterministicReplay(t *testing.T) {
	_, a := chaosRun(t, 21)
	_, b := chaosRun(t, 21)
	if len(a) != len(b) {
		t.Fatalf("warning counts differ across identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("warning %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
