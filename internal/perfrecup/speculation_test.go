package perfrecup

import (
	"fmt"
	"strings"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/sim"
)

// slowableWorkflow is a prep→work fan the brownout can land on: 300ms preps
// push the 1s work tasks past the fault onset, so the browned-out worker's
// work tasks straggle and hedging has something to win.
type slowableWorkflow struct{ width int }

func (s *slowableWorkflow) Name() string        { return "slowable" }
func (s *slowableWorkflow) Stage(env *core.Env) {}
func (s *slowableWorkflow) Run(p *sim.Proc, cl *dask.Client, env *core.Env) {
	g := dask.NewGraph(1)
	var works []dask.TaskKey
	for i := 0; i < s.width; i++ {
		prep := dask.TaskKey(fmt.Sprintf("prep-%02d", i))
		work := dask.TaskKey(fmt.Sprintf("work-%02d", i))
		g.Add(&dask.TaskSpec{Key: prep, EstDuration: sim.Milliseconds(300), OutputSize: 1 << 20})
		g.Add(&dask.TaskSpec{Key: work, Deps: []dask.TaskKey{prep},
			EstDuration: sim.Seconds(1), OutputSize: 1 << 20})
		works = append(works, work)
	}
	g.Add(&dask.TaskSpec{Key: "sink-00", Deps: works, EstDuration: sim.Milliseconds(50), OutputSize: 64})
	cl.SubmitAndWait(p, g)
}

func TestSpeculationTimelineView(t *testing.T) {
	run := func() (*core.RunArtifacts, string) {
		cfg := core.DefaultSessionConfig("job-spec", 42)
		cfg.Platform.NodeSpeedCV = 0
		cfg.PFS.InterferenceLoad = 0
		cfg.Dask.WorkersPerNode = 2
		cfg.Dask.ThreadsPerWorker = 2
		cfg.ChaosSpec = "slow worker=1 at=100ms factor=8"
		cfg.Dask.Speculation.Enabled = true
		art, err := core.Run(cfg, &slowableWorkflow{width: 8})
		if err != nil {
			t.Fatal(err)
		}
		f, err := SpeculationTimelineView(art)
		if err != nil {
			t.Fatal(err)
		}
		if f.NRows() == 0 {
			t.Fatal("no speculation events for a browned-out hedged run")
		}
		kinds := make(map[string]bool)
		at := f.Col("at")
		for i := 0; i < f.NRows(); i++ {
			kinds[f.Col("kind").Str(i)] = true
			if i > 0 && at.Float(i) < at.Float(i-1) {
				t.Fatalf("timeline not sorted by time at row %d", i)
			}
		}
		for _, want := range []string{dask.SpecLaunched, dask.SpecWon, dask.SpecCancelled} {
			if !kinds[want] {
				t.Errorf("timeline missing %s events (got %v)", want, kinds)
			}
		}
		out := RenderSpeculationTimeline(f)
		for _, want := range []string{"launched", "winner ", "loser wasted "} {
			if !strings.Contains(out, want) {
				t.Fatalf("rendered timeline missing %q:\n%s", want, out)
			}
		}
		return art, out
	}

	_, out1 := run()
	_, out2 := run()
	if out1 != out2 {
		t.Fatalf("same seed and spec rendered different timelines:\n%s\nvs\n%s", out1, out2)
	}
}

// TestSpeculationTimelineEmptyWithoutHedging: a fault-free, hedging-off run
// yields an empty (but well-formed) timeline and an empty render.
func TestSpeculationTimelineEmptyWithoutHedging(t *testing.T) {
	art := miniRun(t)
	f, err := SpeculationTimelineView(art)
	if err != nil {
		t.Fatal(err)
	}
	if f.NRows() != 0 {
		t.Fatalf("fault-free run produced %d speculation events", f.NRows())
	}
	if out := RenderSpeculationTimeline(f); out != "" {
		t.Fatalf("rendered empty timeline not empty: %q", out)
	}
}
