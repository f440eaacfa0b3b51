package core

import (
	"fmt"
	"strings"
	"testing"

	"taskprov/internal/dask"
	"taskprov/internal/sim"
)

// brownoutWorkflow is a two-layer graph shaped for the gray-failure
// acceptance scenario: a short prep layer (so work tasks start after the
// brownout onset and their compute is dilated from the first instant),
// then one 1s work task per prep whose outputs a sink gathers. With one
// worker browned out at factor 8, its work tasks dominate the makespan
// unless speculation hedges them onto healthy workers.
type brownoutWorkflow struct {
	width    int
	graphErr string
}

func (b *brownoutWorkflow) Name() string { return "brownout" }

func (b *brownoutWorkflow) Stage(env *Env) {}

func (b *brownoutWorkflow) Run(p *sim.Proc, cl *dask.Client, env *Env) {
	g := dask.NewGraph(1)
	var works []dask.TaskKey
	for i := 0; i < b.width; i++ {
		prep := dask.TaskKey(fmt.Sprintf("prep-%02d", i))
		work := dask.TaskKey(fmt.Sprintf("work-%02d", i))
		g.Add(&dask.TaskSpec{Key: prep, EstDuration: sim.Milliseconds(300), OutputSize: 1 << 20})
		g.Add(&dask.TaskSpec{Key: work, Deps: []dask.TaskKey{prep},
			EstDuration: sim.Seconds(1), OutputSize: 1 << 20})
		works = append(works, work)
	}
	g.Add(&dask.TaskSpec{Key: "sink-00", Deps: works, EstDuration: sim.Milliseconds(50), OutputSize: 64})
	cl.SubmitAndWait(p, g)
	b.graphErr = cl.GraphError(1)
}

// brownoutRun executes the brownout workflow under the given chaos spec and
// speculation switch, returning the artifacts and drained speculation events.
func brownoutRun(t *testing.T, seed uint64, chaosSpec string, speculate bool) (*RunArtifacts, []dask.SpeculationEvent) {
	t.Helper()
	cfg := testSession(seed)
	cfg.ChaosSpec = chaosSpec
	cfg.Dask.ProxyThresholdBytes = 1 << 18
	cfg.Speculation.Enabled = speculate
	wf := &brownoutWorkflow{width: 8}
	art, err := Run(cfg, wf)
	if err != nil {
		t.Fatal(err)
	}
	if wf.graphErr != "" {
		t.Fatalf("graph erred: %s", wf.graphErr)
	}
	evs, err := art.Records().Speculation()
	if err != nil {
		t.Fatal(err)
	}
	return art, evs
}

// proxyFinalResident reconstructs the proxy store's end-of-run resident
// bytes from the run's proxy event stream (publish minus free/reclaim).
func proxyFinalResident(t *testing.T, art *RunArtifacts) int64 {
	t.Helper()
	metas, err := art.Records().Proxy()
	if err != nil {
		t.Fatal(err)
	}
	var resident int64
	for _, ev := range metas {
		switch ev.Op {
		case dask.ProxyOpPublish:
			resident += ev.Bytes
		case dask.ProxyOpFree, dask.ProxyOpReclaim:
			resident -= ev.Bytes
		}
	}
	return resident
}

// TestBrownoutSpeculationAcceptance is the tentpole's acceptance scenario:
// on a seeded workload with one worker browned out at factor=8, enabling
// speculation recovers at least 40% of the lost makespan, with zero
// duplicate task side effects — exactly one winning execution record per
// key and the proxy store's resident footprint back at the fault-free
// baseline — and the speculation timeline reproduces run-for-run.
func TestBrownoutSpeculationAcceptance(t *testing.T) {
	const seed = 42
	const spec = "slow worker=1 at=100ms factor=8"

	clean, _ := brownoutRun(t, seed, "", false)
	slow, slowEvs := brownoutRun(t, seed, spec, false)
	hedged, evs := brownoutRun(t, seed, spec, true)

	if len(slowEvs) != 0 {
		t.Fatalf("speculation off still recorded %d events", len(slowEvs))
	}
	wallClean := clean.Meta.WallSeconds
	wallSlow := slow.Meta.WallSeconds
	wallHedged := hedged.Meta.WallSeconds
	lost := wallSlow - wallClean
	if lost <= 0 {
		t.Fatalf("brownout did not hurt: clean %.3fs, slow %.3fs", wallClean, wallSlow)
	}
	recovered := wallSlow - wallHedged
	t.Logf("makespan clean %.3fs, browned-out %.3fs, speculated %.3fs (recovered %.0f%% of %.3fs lost)",
		wallClean, wallSlow, wallHedged, 100*recovered/lost, lost)
	if recovered < 0.4*lost {
		t.Fatalf("speculation recovered %.3fs of %.3fs lost (< 40%%)", recovered, lost)
	}

	// Speculation actually engaged and settled every launch.
	var launched, won int
	for _, ev := range evs {
		switch ev.Kind {
		case dask.SpecLaunched:
			launched++
		case dask.SpecWon:
			won++
		}
	}
	if launched == 0 || won == 0 {
		t.Fatalf("no hedging recorded: launched %d, won %d (events %+v)", launched, won, evs)
	}

	// Zero duplicate side effects: exactly one winning execution record per
	// task key — a cancelled loser never reports its execution.
	metas, err := hedged.Records().Executions()
	if err != nil {
		t.Fatal(err)
	}
	perKey := map[dask.TaskKey]int{}
	for _, e := range metas {
		perKey[e.Key]++
	}
	for k, n := range perKey {
		if n != 1 {
			t.Errorf("task %s has %d execution records, want exactly 1", k, n)
		}
	}
	if len(perKey) != 17 { // 8 prep + 8 work + sink
		t.Errorf("distinct executed keys = %d, want 17", len(perKey))
	}

	// The proxy store's resident footprint returns to the fault-free
	// baseline: a loser's stray publish would leak bytes here.
	base := proxyFinalResident(t, clean)
	if got := proxyFinalResident(t, hedged); got != base {
		t.Errorf("proxy resident after speculated run = %d, baseline %d", got, base)
	}

	// Determinism: the same seed and spec reproduce the identical
	// speculation timeline, event for event.
	_, evs2 := brownoutRun(t, seed, spec, true)
	if len(evs) != len(evs2) {
		t.Fatalf("speculation timelines differ in length: %d vs %d", len(evs), len(evs2))
	}
	for i := range evs {
		if evs[i] != evs2[i] {
			t.Fatalf("speculation event %d differs:\n%+v\n%+v", i, evs[i], evs2[i])
		}
	}

	// The run's metadata records the policy the timeline ran under.
	inst := hedged.Meta.Instrumentation
	if !inst.SpeculationEnabled || inst.SpeculationMax == 0 || inst.SpeculationQuantile == 0 {
		t.Errorf("speculation policy missing from metadata: %+v", inst)
	}
}

// TestHeartbeatJitterDesynchronizesMultiRestart kills three of four workers
// at the same virtual instant and restarts them together: deterministic
// per-worker heartbeat jitter must spread their post-restart heartbeats so
// the scheduler never sees a synchronized arrival (or, on the TTL side, a
// synchronized eviction) storm.
func TestHeartbeatJitterDesynchronizesMultiRestart(t *testing.T) {
	cfg := testSession(33)
	cfg.ChaosSpec = "kill worker=0 at=4s restart=2s; kill worker=1 at=4s restart=2s; kill worker=2 at=4s restart=2s"
	wf := &crashWorkflow{width: 32}
	art, err := Run(cfg, wf)
	if err != nil {
		t.Fatal(err)
	}
	if wf.graphErr != "" {
		t.Fatalf("graph erred: %s", wf.graphErr)
	}

	metas, err := art.Records().Heartbeats()
	if err != nil {
		t.Fatal(err)
	}
	restart := sim.Seconds(6)
	first := map[string]sim.Time{} // port suffix -> first post-restart heartbeat
	for _, hb := range metas {
		var suffix string
		for _, rank := range []int{0, 1, 2} {
			if strings.HasSuffix(hb.Worker, fmt.Sprintf(":%d", 40000+rank)) {
				suffix = fmt.Sprintf(":%d", 40000+rank)
			}
		}
		if suffix == "" || hb.At <= restart {
			continue
		}
		if cur, ok := first[suffix]; !ok || hb.At < cur {
			first[suffix] = hb.At
		}
	}
	if len(first) != 3 {
		t.Fatalf("restarted workers heartbeating = %d, want 3 (%v)", len(first), first)
	}
	seen := map[sim.Time][]string{}
	for w, at := range first {
		seen[at] = append(seen[at], w)
	}
	for at, ws := range seen {
		if len(ws) > 1 {
			t.Errorf("synchronized post-restart heartbeats at %v from %v", at, ws)
		}
	}
}

// BenchmarkBrownoutSpeculation runs the acceptance scenario end to end —
// the seeded brownout workload with one worker at factor 8, hedging off vs
// on — reporting each mode's simulated makespan so the recovery stays
// visible in BENCH_speculation.json across changes.
func BenchmarkBrownoutSpeculation(b *testing.B) {
	bench := func(b *testing.B, speculate bool) {
		var wall float64
		for i := 0; i < b.N; i++ {
			cfg := testSession(42)
			cfg.ChaosSpec = "slow worker=1 at=100ms factor=8"
			cfg.Dask.ProxyThresholdBytes = 1 << 18
			cfg.Speculation.Enabled = speculate
			wf := &brownoutWorkflow{width: 8}
			art, err := Run(cfg, wf)
			if err != nil {
				b.Fatal(err)
			}
			if wf.graphErr != "" {
				b.Fatalf("graph erred: %s", wf.graphErr)
			}
			wall = art.Meta.WallSeconds
		}
		b.ReportMetric(wall, "makespan-s")
	}
	b.Run("browned-out", func(b *testing.B) { bench(b, false) })
	b.Run("speculated", func(b *testing.B) { bench(b, true) })
}
