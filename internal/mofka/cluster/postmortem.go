package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"taskprov/internal/mofka"
	"taskprov/internal/mofka/wal"
)

// Durable cluster layout:
//
//	<DataDir>/cluster.json        deployment shape (broker count, RF, quorum)
//	<DataDir>/node-<NN>/...       one standard broker data directory per node
//
// Each node directory is what a standalone durable broker writes —
// topics/<name>/p<NNNN>/*.seg WAL segments — so every existing WAL tool
// (recovery, torn-tail truncation, post-mortem loading) applies per node
// unchanged.

const clusterMetaFile = "cluster.json"

type clusterMeta struct {
	Brokers           int `json:"brokers"`
	ReplicationFactor int `json:"replication_factor"`
	Quorum            int `json:"quorum"`
}

func nodeDir(dataDir string, i int) string {
	return filepath.Join(dataDir, fmt.Sprintf("node-%02d", i))
}

func writeClusterMeta(dataDir string, m clusterMeta) error {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return fmt.Errorf("cluster: data dir: %w", err)
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return wal.WriteFileAtomic(filepath.Join(dataDir, clusterMetaFile), b)
}

func loadClusterMeta(dataDir string) (clusterMeta, bool, error) {
	b, err := os.ReadFile(filepath.Join(dataDir, clusterMetaFile))
	if os.IsNotExist(err) {
		return clusterMeta{}, false, nil
	}
	if err != nil {
		return clusterMeta{}, false, fmt.Errorf("cluster: read %s: %w", clusterMetaFile, err)
	}
	var m clusterMeta
	if err := json.Unmarshal(b, &m); err != nil {
		return clusterMeta{}, false, fmt.Errorf("cluster: corrupt %s: %w", clusterMetaFile, err)
	}
	// The shape sizes loops over node directories: hold it to what a cluster
	// could have written.
	shape := Config{Brokers: m.Brokers, ReplicationFactor: m.ReplicationFactor, Quorum: m.Quorum}
	if err := shape.Validate(); err != nil || m.Brokers == 0 {
		return clusterMeta{}, false, fmt.Errorf("cluster: corrupt %s: implausible shape %+v", clusterMetaFile, m)
	}
	return m, true, nil
}

// IsClusterDir reports whether dir looks like a durable cluster data
// directory.
func IsClusterDir(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, clusterMetaFile))
	return err == nil
}

// OpenPostMortem loads a durable cluster directory for analysis without any
// live broker process and merges it into one in-memory broker
// (mofka.OpenPostMortemReplicas over the node directories): every replica
// log is validated and read once, for every partition the longest one is
// published and only its bytes are kept, and nodes that disagree on a topic's
// partition count fail the load. The on-disk state is never modified.
func OpenPostMortem(dataDir string) (*mofka.Broker, error) {
	meta, ok, err := loadClusterMeta(dataDir)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("cluster: %s is not a cluster data directory", dataDir)
	}
	var dirs []string
	for i := 0; i < meta.Brokers; i++ {
		// A node that never wrote anything (or whose directory was lost)
		// has nothing to merge.
		if dir := nodeDir(dataDir, i); mofka.IsDataDir(dir) {
			dirs = append(dirs, dir)
		}
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("cluster: %s holds no recoverable node directories", dataDir)
	}
	view, err := mofka.OpenPostMortemReplicas(dirs)
	if err != nil {
		return nil, fmt.Errorf("cluster: load %s: %w", dataDir, err)
	}
	return view, nil
}

// IsLogDir reports whether dir holds a durable event log of either
// deployment: a cluster's directory or a single broker's.
func IsLogDir(dir string) bool { return IsClusterDir(dir) || mofka.IsDataDir(dir) }

// OpenLog opens the durable event log in dir for analysis, whichever
// deployment wrote it — the one post-mortem opener every reader (perfrecup,
// live, resume) goes through. Nothing on disk is modified.
func OpenLog(dir string) (*mofka.Broker, error) {
	if IsClusterDir(dir) {
		return OpenPostMortem(dir)
	}
	return mofka.OpenPostMortem(dir)
}
