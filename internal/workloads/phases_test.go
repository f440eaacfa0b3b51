package workloads

import (
	"math"
	"path/filepath"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/live"
	"taskprov/internal/perfrecup"
)

// TestPhasesMatchFullReplay holds perfrecup.Phases, which replays only
// live.PhaseTopics, to the phase fields of LiveReplay, which replays every
// topic: bit for bit on the three paper workflows, a worker kill under the
// proxy data plane with hedging, a brownout with hedging, and a -cluster 3
// -replication 2 data dir opened post-mortem. A handler outside the list
// that wrote a phase field would make the two disagree.
func TestPhasesMatchFullReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow runs")
	}
	check := func(name string, art *core.RunArtifacts) live.Summary {
		t.Helper()
		got, err := perfrecup.Phases(art)
		if err != nil {
			t.Fatalf("%s: Phases: %v", name, err)
		}
		full, err := perfrecup.LiveReplay(art, live.AggregatorOptions{DisableAnomalies: true})
		if err != nil {
			t.Fatalf("%s: LiveReplay: %v", name, err)
		}
		for _, f := range []struct {
			field     string
			got, want float64
		}{
			{"IOSeconds", got.IOSeconds, full.IOSeconds},
			{"CommSeconds", got.CommSeconds, full.CommSeconds},
			{"ComputeSeconds", got.ComputeSeconds, full.ComputeSeconds},
			{"TotalSeconds", got.TotalSeconds, full.WallSeconds},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Errorf("%s: Phases %s = %v, the full replay's %v", name, f.field, f.got, f.want)
			}
		}
		if got.Workflow != full.Workflow || got.Seed != full.Seed || got.ThreadSlots != full.ThreadSlots ||
			got.IOOps != full.IOOps || got.Transfers != full.Transfers || got.Tasks != full.Tasks {
			t.Errorf("%s: Phases %+v, the full replay's counts %s/%d slots=%d ioops=%d transfers=%d tasks=%d",
				name, got, full.Workflow, full.Seed, full.ThreadSlots, full.IOOps, full.Transfers, full.Tasks)
		}
		if got.Tasks == 0 || got.Transfers == 0 || got.IOOps == 0 || got.IOSeconds <= 0 || got.CommSeconds <= 0 || got.ComputeSeconds <= 0 {
			t.Errorf("%s: degenerate phases %+v", name, got)
		}
		if full.Transitions == 0 || full.Events <= got.Tasks+got.Transfers {
			t.Errorf("%s: the full replay saw %d events, %d transitions: no topic outside the phase list", name, full.Events, full.Transitions)
		}
		return full
	}

	for _, name := range seededWorkflows {
		check(name, seededRun(t, name))
	}

	imageprocessing := func(t *testing.T, mod func(*core.SessionConfig)) *core.RunArtifacts {
		t.Helper()
		wf, err := New("imageprocessing")
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultSession("imageprocessing", "job-phases", 3)
		mod(&cfg)
		art, err := core.Run(cfg, wf)
		if err != nil {
			t.Fatal(err)
		}
		return art
	}
	killed := check("kill+proxy+speculate", imageprocessing(t, func(cfg *core.SessionConfig) {
		cfg.ChaosSpec = "kill worker=3 at=40s restart=25s"
		cfg.Dask.ProxyThresholdBytes = 1 << 20
		cfg.Dask.Speculation.Enabled = true
	}))
	if killed.Proxy == nil || killed.Speculation == nil || len(killed.Recovery) == 0 {
		t.Errorf("the kill run streamed no proxy, speculation or recovery events: %+v", killed)
	}
	slow := check("brownout+speculate", imageprocessing(t, func(cfg *core.SessionConfig) {
		cfg.ChaosSpec = "slow worker=2 at=1m factor=8"
		cfg.Dask.Speculation.Enabled = true
	}))
	if slow.Speculation == nil || slow.Speculation.Launched == 0 {
		t.Errorf("the brownout run launched no hedge: %+v", slow.Speculation)
	}

	dir := filepath.Join(t.TempDir(), "log")
	imageprocessing(t, func(cfg *core.SessionConfig) {
		cfg.MofkaDataDir = dir
		cfg.ClusterBrokers = 3
		cfg.ClusterReplication = 2
	})
	art, err := perfrecup.LoadEventLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	check("cluster", art)
}
