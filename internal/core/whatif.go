package core

import "taskprov/internal/whatif"

// WhatIfInput adapts the run's artifacts into the whatif extractor's input:
// the run's decoded provenance records, the Darshan logs for the I/O join,
// and the metadata fields that form the model's baseline configuration. It
// works for live artifacts, WAL replays, and post-mortem loads alike —
// whatever populated the RunArtifacts.
func (a *RunArtifacts) WhatIfInput() whatif.Input {
	return whatif.Input{
		Records:             a.Records(),
		DarshanLogs:         a.DarshanLogs,
		Workflow:            a.Meta.Workflow,
		Seed:                a.Meta.Seed,
		Nodes:               a.Meta.Platform.Nodes,
		WorkersPerNode:      a.Meta.DaskConfig.WorkersPerNode,
		ThreadsPerWorker:    a.Meta.DaskConfig.ThreadsPerWorker,
		StealEnabled:        a.Meta.DaskConfig.WorkStealing,
		ProxyThresholdBytes: a.Meta.DaskConfig.ProxyThresholdBytes,
		StartSeconds:        a.Meta.StartSeconds,
		WallSeconds:         a.Meta.WallSeconds,
	}
}

// ExtractModel fits the whatif cost model from the run's provenance.
func (a *RunArtifacts) ExtractModel() (*whatif.Model, error) {
	return whatif.Extract(a.WhatIfInput())
}
