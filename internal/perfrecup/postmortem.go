package perfrecup

import (
	"fmt"
	"os"
	"path/filepath"

	"taskprov/internal/core"
	"taskprov/internal/darshan"
	"taskprov/internal/mofka/cluster"
	"taskprov/internal/sim"
)

// Load reads a run from either layout taskprov writes: a run directory
// (metadata.json + mofka/*.jsonl, RunArtifacts.WriteDir) through core.LoadDir,
// or a durable data directory — a broker's topics/ or a cluster's
// cluster.json — post-mortem, straight from the on-disk event logs.
func Load(dir string) (*core.RunArtifacts, error) {
	if cluster.IsLogDir(dir) {
		return LoadEventLog(dir)
	}
	return core.LoadDir(dir)
}

// LoadEventLog builds run artifacts directly from a durable Mofka data
// directory (a broker started with -data-dir, or a run with
// SessionConfig.MofkaDataDir set) — no live broker and no JSONL export
// needed. The on-disk segments replay into an in-memory broker opened
// read-only, so every view (ExecutionsView, Phases, ...) works exactly as it
// does against a live broker, and the directory on disk is never modified —
// safe to point at the log of a crashed run.
//
// Alongside the topics/ tree the loader picks up what the directory offers:
//
//	metadata.json       the provenance chart (written by instrumented runs)
//	darshan/*.darshan   per-worker I/O logs, if collected into the same dir
//
// Both are optional; views over missing sources simply come back empty.
//
// Sharded cluster directories (cluster.json + node-NN/ broker dirs, written
// by runs with SessionConfig.ClusterBrokers set) load the same way: every
// replica's log is opened and merged — the longest replica of each
// partition wins, which by the quorum protocol's prefix-consistency is a
// superset of every acknowledged event.
func LoadEventLog(dataDir string) (*core.RunArtifacts, error) {
	broker, err := cluster.OpenLog(dataDir)
	if err != nil {
		return nil, fmt.Errorf("perfrecup: open event log %s: %w", dataDir, err)
	}
	art := &core.RunArtifacts{Broker: broker}

	if metaBytes, err := os.ReadFile(filepath.Join(dataDir, "metadata.json")); err == nil {
		meta, err := core.DecodeMetadata(metaBytes)
		if err != nil {
			return nil, fmt.Errorf("perfrecup: %s/metadata.json: %w", dataDir, err)
		}
		art.Meta = meta
		art.WallTime = sim.Seconds(meta.WallSeconds)
	}

	if art.DarshanLogs, err = darshan.ReadDir(filepath.Join(dataDir, "darshan")); err != nil {
		return nil, fmt.Errorf("perfrecup: %w", err)
	}
	return art, nil
}
