// Package workloads implements the paper's three evaluation workflows as
// calibrated task-graph generators: the ImageProcessing pipeline (§IV-B,
// BCSS histology images through normalization/grayscale/Gaussian/
// segmentation), ResNet152 batch prediction (Imagewang images through
// load/transform/predict delayed tasks), and XGBOOST regression training on
// NYC TLC parquet records (monthly prep graphs + distributed training +
// prediction).
//
// The generators are calibrated to Table I: task-graph counts, distinct
// task counts, distinct file counts, and the published I/O-operation and
// communication ranges. Dataset structure (file sizes, chunk counts) is
// drawn from fixed dataset seeds so it is identical across runs, as a real
// dataset would be; run-to-run variability comes only from the run seed
// (placement, noise, scheduling).
package workloads

import (
	"fmt"
	"strconv"

	"taskprov/internal/core"
	"taskprov/internal/sim"
)

// datasetSeed fixes dataset structure across runs. Distinct from any run
// seed by construction.
const datasetSeed uint64 = 0xDA7A5E7

// pseudoHash renders a deterministic 12-hex-digit "dask hash" for task
// keys (wide enough that birthday collisions across ~10^4 keys are
// negligible): FNV-1a over the name and then each number in decimal, every
// part followed by a separator.
func pseudoHash(name string, nums ...int) string {
	h := fnvPart(1469598103934665603, name)
	var buf [20]byte
	for _, n := range nums {
		h = fnvPart(h, strconv.AppendInt(buf[:0], int64(n), 10))
	}
	const hexDigits = "0123456789abcdef"
	var out [12]byte
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = hexDigits[h&0xF]
		h >>= 4
	}
	return string(out[:])
}

// fnvPart folds one key part into an FNV-1a hash, then the part separator:
// ("a",1,12) must differ from ("a",11,2).
func fnvPart[T string | []byte](h uint64, part T) uint64 {
	for i := 0; i < len(part); i++ {
		h ^= uint64(part[i])
		h *= 1099511628211
	}
	h ^= 0xFF
	return h * 1099511628211
}

// tupleKey renders a Dask collection task key: "('name-hash', index)".
func tupleKey(name, hash string, index int) string {
	var buf [64]byte
	b := append(buf[:0], "('"...)
	b = append(b, name...)
	b = append(b, '-')
	b = append(b, hash...)
	b = append(b, "', "...)
	b = strconv.AppendInt(b, int64(index), 10)
	return string(append(b, ')'))
}

// datasetRNG returns the fixed-structure RNG stream for a workload.
func datasetRNG(workload string) *sim.RNG {
	return sim.NewRNG(datasetSeed).Split(workload)
}

// TableITarget holds the paper's Table I row for one workflow, used by
// tests and the benchmark harness to check reproduction fidelity.
type TableITarget struct {
	TaskGraphs    int
	DistinctTasks int
	DistinctFiles int
	IOOpsLow      int64
	IOOpsHigh     int64
	CommsLow      int64
	CommsHigh     int64
}

// TableI is the paper's Table I.
var TableI = map[string]TableITarget{
	"imageprocessing": {TaskGraphs: 3, DistinctTasks: 5440, DistinctFiles: 151,
		IOOpsLow: 5274, IOOpsHigh: 5287, CommsLow: 3141, CommsHigh: 3247},
	"resnet152": {TaskGraphs: 1, DistinctTasks: 8645, DistinctFiles: 3929,
		IOOpsLow: 2057, IOOpsHigh: 2302, CommsLow: 3751, CommsHigh: 3976},
	"xgboost": {TaskGraphs: 74, DistinctTasks: 10348, DistinctFiles: 61,
		IOOpsLow: 867, IOOpsHigh: 1670, CommsLow: 1464, CommsHigh: 2027},
}

// New returns the named workflow generator ("imageprocessing",
// "resnet152", or "xgboost").
func New(name string) (core.Workflow, error) {
	switch name {
	case "imageprocessing":
		return NewImageProcessing(), nil
	case "resnet152":
		return NewResNet152(), nil
	case "xgboost":
		return NewXGBoost(), nil
	default:
		return nil, fmt.Errorf("workloads: unknown workflow %q (have imageprocessing, resnet152, xgboost)", name)
	}
}

// Names lists the available workflows in paper order.
func Names() []string { return []string{"imageprocessing", "resnet152", "xgboost"} }

// DefaultSession returns the paper-equivalent session configuration for the
// named workflow: the Polaris-like platform (2 worker nodes, 4 workers per
// node, 8 threads per worker), Lustre-like storage, and the workflow's
// instrumentation settings. ResNet152 keeps the default-sized DXT trace
// buffer that the paper's runs overflowed (footnote 9): 273 segments per
// worker process reproduces the observed 2057–2302 op under-count against
// ~5700 actual operations.
func DefaultSession(name, jobID string, seed uint64) core.SessionConfig {
	cfg := core.DefaultSessionConfig(jobID, seed)
	if name == "resnet152" {
		cfg.DXTBufferSegments = 287
		// The paper observed all 3929 distinct files despite the DXT
		// truncation, so its Darshan record table was large enough; raise
		// ours accordingly (the per-worker file count can exceed the 1024
		// default when load placement skews).
		cfg.DarshanMaxFileRecords = 4096
	}
	return cfg
}

// Runs returns the paper's run count per workflow: 10 for ImageProcessing
// and ResNet152, 50 for XGBOOST ("because it showed more variability").
func Runs(name string) int {
	if name == "xgboost" {
		return 50
	}
	return 10
}
