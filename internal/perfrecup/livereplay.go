package perfrecup

import (
	"taskprov/internal/core"
	"taskprov/internal/live"
	"taskprov/internal/provenance"
)

// LiveReplay feeds a completed run's artifacts through the live-monitoring
// aggregator (internal/live), post-mortem. It is both an analysis surface —
// live.Summary's group quantiles, state occupancy, and per-worker figures as
// batch views — and the reference side of the aggregate-equivalence
// invariant: a live Monitor's final Summary over a run must equal
// LiveReplay's over the same artifacts (see DESIGN.md).
func LiveReplay(art *core.RunArtifacts, opts live.AggregatorOptions) (live.Summary, error) {
	return replay(art, opts, provenance.AllTopics())
}

// replay feeds the named topics of the run's broker through a fresh
// aggregator, then the run's Darshan logs, meta and wall time.
func replay(art *core.RunArtifacts, opts live.AggregatorOptions, topics []string) (live.Summary, error) {
	agg := live.NewAggregator(opts)
	if err := live.ReplayTopics(art.Broker, agg, topics); err != nil {
		return live.Summary{}, err
	}
	for _, l := range art.DarshanLogs {
		agg.IngestDarshanLog(l)
	}
	agg.SetMeta(art.Meta.Workflow, art.Meta.Seed, art.Meta.ThreadSlots())
	agg.SetWall(art.Meta.WallSeconds)
	return agg.Snapshot(), nil
}
