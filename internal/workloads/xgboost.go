package workloads

import (
	"fmt"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/posixio"
	"taskprov/internal/sim"
)

// XGBoost reproduces the paper's regression-training workflow over the NYC
// TLC High Volume For-Hire Vehicle trip records (2019–2024, 61 parquet
// files, ~20 GiB): 72 monthly preparation graphs (whose read tasks carry the
// "read_parquet-fused-assign" prefix Dask's graph optimization gives a read
// fused with its consumer — the generator names the fused category itself —
// with >128 MB partition outputs, Fig. 6), one distributed
// training graph (one pinned trainer per worker, as xgboost.dask does), and
// one prediction graph — Table I's 74 graphs and 10348 tasks.
//
// The long, GIL-holding parquet-decode portions of the read tasks block the
// worker event loop, producing the ~297 "unresponsive event loop" warnings
// early in the run that the paper correlates with those tasks (Fig. 7).
type XGBoost struct {
	Months     int
	Files      int
	Partitions int // partitions per month graph (last month is short)

	fileSize  []int64 // per parquet file
	readOut   []int64 // per-month fused-read output size (>128 MiB)
	lastParts int
	paths     []string // per parquet file, formatted once
	workers   []string // worker addresses, captured at Run time
	threads   int      // threads per worker, captured at Run time
}

// NewXGBoost builds the generator calibrated to Table I.
func NewXGBoost() *XGBoost {
	w := &XGBoost{Months: 72, Files: 61, Partitions: 40, lastParts: 34}
	rng := datasetRNG("xgboost")
	w.fileSize = make([]int64, w.Files)
	w.paths = make([]string, w.Files)
	for i := range w.fileSize {
		w.fileSize[i] = int64(rng.IntBetween(280, 390)) << 20 // ~20 GiB total
		w.paths[i] = fmt.Sprintf("/lus/grand/tlc/fhvhv_tripdata_%04d-%02d.parquet", 2019+i/12, i%12+1)
	}
	w.readOut = make([]int64, w.Months)
	for m := range w.readOut {
		w.readOut[m] = int64(rng.IntBetween(300, 400)) << 20 // > 128 MB partitions
	}
	return w
}

// Name implements core.Workflow.
func (w *XGBoost) Name() string { return "xgboost" }

// fileFor maps a month graph to its parquet file; late months re-read early
// files (the tail of the dataset shares files), keeping 61 distinct files.
func (w *XGBoost) fileFor(m int) int {
	if m < w.Files {
		return m
	}
	return m - w.Files
}

// Stage implements core.Workflow.
func (w *XGBoost) Stage(env *core.Env) {
	for i := 0; i < w.Files; i++ {
		env.PFS.CreateNow(w.paths[i], w.fileSize[i])
	}
}

// parts returns the partition count of month m: most months have 40, the
// last 2024 months (56-63) are lighter (38), and the final month is short.
func (w *XGBoost) parts(m int) int {
	if m == w.Months-1 {
		return w.lastParts
	}
	if m >= 56 && m <= 63 {
		return 38
	}
	return w.Partitions
}

// trainKey names month m's training frame, interned by g: the graph that
// produces it, or a later one that depends on it.
func (w *XGBoost) trainKey(g *dask.Graph, m int) dask.TaskKey {
	if m == w.Months-1 {
		return hashKey(g, "to_frame-train", "tf-train", m)
	}
	return hashKey(g, "concat-train", "concat-train", m)
}

// testKey names month m's test frame, interned by g.
func (w *XGBoost) testKey(g *dask.Graph, m int) dask.TaskKey {
	if m == w.Months-1 {
		return hashKey(g, "to_frame-test", "tf-test", m)
	}
	return hashKey(g, "concat-test", "concat-test", m)
}

// Run implements core.Workflow: months are submitted eagerly (the client
// builds them back to back); training and prediction wait on the results.
func (w *XGBoost) Run(p *sim.Proc, cl *dask.Client, env *core.Env) {
	w.workers = nil
	for _, wk := range env.Cluster.Workers() {
		w.workers = append(w.workers, wk.Addr())
	}
	w.threads = env.Cluster.Config().ThreadsPerWorker
	// The driver script builds and submits one graph per month; reading
	// parquet metadata and constructing each month's frame takes a few
	// seconds of client time, so submissions (and therefore the long fused
	// reads) spread over the first several hundred seconds of the run —
	// the window where Fig. 7's event-loop warnings accumulate.
	think := env.RNG.Split("xgboost/think")
	for m := 0; m < w.Months; m++ {
		cl.Submit(p, w.monthGraph(m))
		p.Sleep(sim.Seconds(think.Uniform(0.15, 0.35)))
	}
	for m := 0; m < w.Months; m++ {
		cl.Wait(p, m+1)
	}
	cl.SubmitAndWait(p, w.trainGraph())
	cl.SubmitAndWait(p, w.predictGraph())
}

// monthGraph builds graph m+1: fused parquet read, per-partition feature
// prep, pairwise column drops, and train/test concatenations.
func (w *XGBoost) monthGraph(m int) *dask.Graph {
	g := dask.NewGraph(m + 1)
	parts := w.parts(m)
	fileIdx := w.fileFor(m)
	size := w.fileSize[fileIdx]
	out := w.readOut[m]
	path := w.paths[fileIdx]
	var sc scratch

	read := hashKey(g, "read_parquet-fused-assign", "read", m)
	g.Add(&dask.TaskSpec{
		Key:             read,
		OutputSize:      out,
		BlocksEventLoop: true, // parquet decode holds the GIL
		Run: func(ctx *dask.TaskContext) {
			f, err := ctx.Open(path, posixio.RDONLY)
			if err != nil {
				panic(err)
			}
			// Row-group read count varies run to run with memory pressure:
			// the wide Table I I/O range for this workflow.
			rng := ctx.RNG()
			nReads := rng.IntBetween(13, 23)
			chunk := size / int64(nReads)
			for c := 0; c < nReads; c++ {
				f.Pread(ctx.Proc(), int64(c)*chunk, chunk)
			}
			f.Close(ctx.Proc())
			// GIL-holding decompression+assign (blocks the event loop),
			// then cooperative dataframe assembly.
			ctx.Compute(sim.Seconds(rng.Uniform(10, 15)))
			ctx.SetOutputSize(out)
		},
	})

	drops := make([]dask.TaskKey, 0, parts/2)
	splits := make([]dask.TaskKey, 0, parts)
	for pi := 0; pi < parts; pi++ {
		idx := m*w.Partitions + pi // global partition index (Fig. 8 keys)
		getitem := tupleTaskKey(g, "getitem", "getitem", m, idx)
		g.Add(&dask.TaskSpec{
			Key: getitem, Deps: sc.deps(read),
			OutputSize: 30 << 20, EstDuration: sim.Milliseconds(260),
		})
		cats := tupleTaskKey(g, "getitem__get_categories", "cats", m, idx)
		g.Add(&dask.TaskSpec{
			Key: cats, Deps: sc.deps(getitem),
			OutputSize: 25 << 20, EstDuration: sim.Milliseconds(300),
		})
		split := tupleTaskKey(g, "random_split_take", "split", m, idx)
		g.Add(&dask.TaskSpec{
			Key: split, Deps: sc.deps(getitem, cats),
			OutputSize: 28 << 20, EstDuration: sim.Milliseconds(340),
		})
		splits = append(splits, split)
	}
	for j := 0; j < parts/2; j++ {
		drop := tupleTaskKey(g, "drop_by_shallow_copy", "drop", m, m*w.Partitions/2+j)
		g.Add(&dask.TaskSpec{
			Key: drop, Deps: splits[2*j : 2*j+2],
			OutputSize: 52 << 20, EstDuration: sim.Milliseconds(320),
		})
		drops = append(drops, drop)
	}
	concatTrain := hashKey(g, "concat-train", "concat-train", m)
	concatTest := hashKey(g, "concat-test", "concat-test", m)
	g.Add(&dask.TaskSpec{
		Key: concatTrain, Deps: drops,
		OutputSize: 250 << 20, EstDuration: sim.Milliseconds(650),
	})
	g.Add(&dask.TaskSpec{
		Key: concatTest, Deps: drops,
		OutputSize: 80 << 20, EstDuration: sim.Milliseconds(400),
	})
	if m == w.Months-1 {
		// The short final month converts its concatenations to frames.
		g.Add(&dask.TaskSpec{
			Key: w.trainKey(g, m), Deps: sc.deps(concatTrain),
			OutputSize: 250 << 20, EstDuration: sim.Milliseconds(300),
		})
		g.Add(&dask.TaskSpec{
			Key: w.testKey(g, m), Deps: sc.deps(concatTest),
			OutputSize: 80 << 20, EstDuration: sim.Milliseconds(250),
		})
	}
	return g
}

// trainGraph builds graph 73: one pinned trainer per worker (xgboost.dask
// starts native training inside one long task per worker; the allreduce
// happens in XGBoost's own communicator, not as Dask transfers) plus a
// model-combination task.
func (w *XGBoost) trainGraph() *dask.Graph {
	g := dask.NewGraph(w.Months + 1)
	workers := w.workers
	if workers == nil {
		panic("workloads: XGBoost.Run must set workers before trainGraph")
	}
	// xgboost.dask occupies every thread of every worker with native
	// training (nthread = threads-per-worker): one pinned trainer task per
	// thread slot, all running for the whole training phase.
	threads := w.trainThreads()
	trains := make([]dask.TaskKey, 0, len(workers)*threads)
	var deps []dask.TaskKey
	slot := 0
	for t := range workers {
		for th := 0; th < threads; th++ {
			deps = deps[:0]
			for m := slot; m < w.Months; m += len(workers) * threads {
				key := w.trainKey(g, m)
				deps = append(deps, key)
				g.AddExternal(key)
			}
			key := hashKey(g, "train-xgboost", "train", t, th)
			g.Add(&dask.TaskSpec{
				Key: key, Deps: deps,
				OutputSize:   8 << 20, // per-thread booster partial
				Restrictions: workers[t : t+1],
				Run: func(ctx *dask.TaskContext) {
					// Native training; checkpoints go to node-local
					// scratch, outside the instrumented PFS (so Table I's
					// file count stays at the 61 parquet inputs).
					ctx.Compute(sim.Seconds(ctx.RNG().Uniform(255, 295)))
				},
			})
			trains = append(trains, key)
			slot++
		}
	}
	g.Add(&dask.TaskSpec{
		Key: modelKey, Deps: trains,
		OutputSize: 60 << 20, EstDuration: sim.Seconds(2),
	})
	return g
}

// trainThreads returns the per-worker thread count captured at Run time.
func (w *XGBoost) trainThreads() int {
	if w.threads > 0 {
		return w.threads
	}
	return 8
}

var modelKey = dask.TaskKey(appendHash([]byte("model-combine-"), "model"))

// predictGraph builds graph 74: per-month test-set prediction plus a
// summary writing the final report.
func (w *XGBoost) predictGraph() *dask.Graph {
	g := dask.NewGraph(w.Months + 2)
	g.AddExternal(modelKey)
	var sc scratch
	preds := make([]dask.TaskKey, 0, 61)
	for i := 0; i < 61; i++ {
		test := w.testKey(g, i)
		g.AddExternal(test)
		key := tupleTaskKey(g, "predict", "predict", i, i)
		g.Add(&dask.TaskSpec{
			Key: key, Deps: sc.deps(modelKey, test),
			OutputSize: 1 << 20, EstDuration: sim.Milliseconds(1500),
		})
		preds = append(preds, key)
	}
	g.Add(&dask.TaskSpec{
		Key: hashKey(g, "summarize", "xgb-summary"), Deps: preds,
		OutputSize: 128 << 10, EstDuration: sim.Milliseconds(500),
	})
	return g
}
