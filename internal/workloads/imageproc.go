package workloads

import (
	"fmt"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/posixio"
	"taskprov/internal/sim"
)

// ImageProcessing reproduces the paper's four-step image pipeline
// (normalization, grayscale, Gaussian filter, segmentation) over the Breast
// Cancer Semantic Segmentation dataset, expressed as three sequential task
// graphs (Table I). Each step reads its input from the PFS and writes its
// output back, producing the three read-phase/write-phase bursts of Fig. 4;
// each original image is read in 4 MiB chunks (10–25 reads per image).
type ImageProcessing struct {
	// Dataset structure (fixed across runs).
	NumImages   int
	Shards      int
	chunks      []int // chunks (=4 MiB reads) per image
	smallReads  []int // phase-3 reads per image (mostly 2)
	totalChunks int
}

// Image chunk size: the 4 MiB accesses the paper observes per
// dask_image.imread task.
const ipChunk = 4 << 20

// NewImageProcessing builds the generator with the calibrated dataset:
// 80 images totalling 1653 chunks, 70 output shards — yielding exactly
// Table I's 5440 tasks across 3 graphs over 151 distinct files.
func NewImageProcessing() *ImageProcessing {
	w := &ImageProcessing{NumImages: 80, Shards: 70}
	rng := datasetRNG("imageprocessing")
	const wantChunks = 1653
	w.chunks = make([]int, w.NumImages)
	sum := 0
	for i := range w.chunks {
		w.chunks[i] = rng.IntBetween(14, 25)
		sum += w.chunks[i]
	}
	// Adjust within [10, 25] until the dataset hits the calibrated total.
	for sum != wantChunks {
		i := rng.Intn(w.NumImages)
		if sum < wantChunks && w.chunks[i] < 25 {
			w.chunks[i]++
			sum++
		} else if sum > wantChunks && w.chunks[i] > 10 {
			w.chunks[i]--
			sum--
		}
	}
	w.totalChunks = sum
	// Three images have a single-op phase-3 read (tiny outputs), the rest
	// two ops.
	w.smallReads = make([]int, w.NumImages)
	for i := range w.smallReads {
		w.smallReads[i] = 2
	}
	for _, i := range []int{11, 37, 63} {
		w.smallReads[i] = 1
	}
	return w
}

// Name implements core.Workflow.
func (w *ImageProcessing) Name() string { return "imageprocessing" }

func (w *ImageProcessing) inputPath(i int) string {
	return fmt.Sprintf("/lus/grand/bcss/images/TCGA-%04d.png", i)
}

func (w *ImageProcessing) shardPath(s int) string {
	return fmt.Sprintf("/lus/grand/bcss/out/stage-%03d.zarr", s)
}

const ipReportPath = "/lus/grand/bcss/out/segmentation-report.json"

// Stage implements core.Workflow: place the input images on the PFS.
func (w *ImageProcessing) Stage(env *core.Env) {
	for i := 0; i < w.NumImages; i++ {
		env.PFS.CreateNow(w.inputPath(i), int64(w.chunks[i])*ipChunk)
	}
}

// Run implements core.Workflow: three sequential graphs.
func (w *ImageProcessing) Run(p *sim.Proc, cl *dask.Client, env *core.Env) {
	cl.SubmitAndWait(p, w.graph1())
	cl.SubmitAndWait(p, w.graph2())
	cl.SubmitAndWait(p, w.graph3())
}

// graph1: imread -> normalize (per chunk) -> grayscale (per chunk) ->
// store. Reads originals in 4 MiB chunks, writes full-size normalized
// images to shard files.
func (w *ImageProcessing) graph1() *dask.Graph {
	g := dask.NewGraph(1)
	for i := 0; i < w.NumImages; i++ {
		i := i
		ci := w.chunks[i]
		imread := dask.TaskKey(fmt.Sprintf("imread-%s", pseudoHash("imread", i)))
		g.Add(&dask.TaskSpec{
			Key:        imread,
			OutputSize: int64(ci) * ipChunk,
			Run: func(ctx *dask.TaskContext) {
				f, err := ctx.Open(w.inputPath(i), posixio.RDONLY)
				if err != nil {
					panic(err)
				}
				reads := ci
				// Occasional client-side re-read (page-cache miss retry):
				// the workload's small run-to-run I/O count jitter.
				if ctx.RNG().Bool(0.06) {
					reads++
				}
				for c := 0; c < reads; c++ {
					f.Pread(ctx.Proc(), int64(c%ci)*ipChunk, ipChunk)
				}
				f.Close(ctx.Proc())
				ctx.Compute(sim.Milliseconds(250))
			},
		})
		var grays []dask.TaskKey
		for c := 0; c < ci; c++ {
			norm := dask.TaskKey(fmt.Sprintf("normalize-%s", pseudoHash("norm", i, c)))
			g.Add(&dask.TaskSpec{
				Key: norm, Deps: []dask.TaskKey{imread},
				OutputSize: ipChunk, EstDuration: sim.Milliseconds(600),
			})
			gray := dask.TaskKey(fmt.Sprintf("grayscale-%s", pseudoHash("gray", i, c)))
			g.Add(&dask.TaskSpec{
				Key: gray, Deps: []dask.TaskKey{norm},
				OutputSize: ipChunk, EstDuration: sim.Milliseconds(450),
			})
			grays = append(grays, gray)
		}
		shard := w.shardPath(i % w.Shards)
		g.Add(&dask.TaskSpec{
			Key:        dask.TaskKey(fmt.Sprintf("store-zarr-%s", pseudoHash("store1", i))),
			Deps:       grays,
			OutputSize: 8,
			Run: func(ctx *dask.TaskContext) {
				f, err := ctx.Open(shard, posixio.WRONLY|posixio.CREATE)
				if err != nil {
					panic(err)
				}
				for c := 0; c < ci; c++ {
					f.Pwrite(ctx.Proc(), int64(i)*100<<20+int64(c)*ipChunk, ipChunk)
				}
				f.Close(ctx.Proc())
				ctx.Compute(sim.Milliseconds(120))
			},
		})
	}
	return g
}

// graph2: read the normalized images back, Gaussian-filter per chunk, and
// write small (KB) filtered summaries — the paper's smaller phase-2 writes.
func (w *ImageProcessing) graph2() *dask.Graph {
	g := dask.NewGraph(2)
	for i := 0; i < w.NumImages; i++ {
		i := i
		ci := w.chunks[i]
		shard := w.shardPath(i % w.Shards)
		read := dask.TaskKey(fmt.Sprintf("readzarr-%s", pseudoHash("read2", i)))
		g.Add(&dask.TaskSpec{
			Key:        read,
			OutputSize: int64(ci) * ipChunk,
			Run: func(ctx *dask.TaskContext) {
				f, err := ctx.Open(shard, posixio.RDONLY)
				if err != nil {
					panic(err)
				}
				for c := 0; c < ci; c++ {
					f.Pread(ctx.Proc(), int64(i)*100<<20+int64(c)*ipChunk, ipChunk)
				}
				f.Close(ctx.Proc())
				ctx.Compute(sim.Milliseconds(100))
			},
		})
		var blurs []dask.TaskKey
		for c := 0; c < ci; c++ {
			blur := dask.TaskKey(fmt.Sprintf("gaussian_filter-%s", pseudoHash("blur", i, c)))
			g.Add(&dask.TaskSpec{
				Key: blur, Deps: []dask.TaskKey{read},
				OutputSize: ipChunk, EstDuration: sim.Milliseconds(1100),
			})
			blurs = append(blurs, blur)
		}
		g.Add(&dask.TaskSpec{
			Key:        dask.TaskKey(fmt.Sprintf("store-small-%s", pseudoHash("store2", i))),
			Deps:       blurs,
			OutputSize: 8,
			Run: func(ctx *dask.TaskContext) {
				f, err := ctx.Open(shard, posixio.WRONLY)
				if err != nil {
					panic(err)
				}
				f.Pwrite(ctx.Proc(), int64(i)*128<<10, 48<<10)
				f.Pwrite(ctx.Proc(), int64(i)*128<<10+48<<10, 48<<10)
				f.Close(ctx.Proc())
				ctx.Compute(sim.Milliseconds(80))
			},
		})
	}
	return g
}

// graph3: read the small filtered images and segment them; one aggregation
// task writes the final report.
func (w *ImageProcessing) graph3() *dask.Graph {
	g := dask.NewGraph(3)
	var segs []dask.TaskKey
	for i := 0; i < w.NumImages; i++ {
		i := i
		shard := w.shardPath(i % w.Shards)
		nReads := w.smallReads[i]
		read := dask.TaskKey(fmt.Sprintf("readsmall-%s", pseudoHash("read3", i)))
		g.Add(&dask.TaskSpec{
			Key:        read,
			OutputSize: 96 << 10,
			Run: func(ctx *dask.TaskContext) {
				f, err := ctx.Open(shard, posixio.RDONLY)
				if err != nil {
					panic(err)
				}
				for c := 0; c < nReads; c++ {
					f.Pread(ctx.Proc(), int64(i)*128<<10+int64(c)*48<<10, 48<<10)
				}
				f.Close(ctx.Proc())
				ctx.Compute(sim.Milliseconds(60))
			},
		})
		seg := dask.TaskKey(fmt.Sprintf("segment-%s", pseudoHash("seg", i)))
		g.Add(&dask.TaskSpec{
			Key: seg, Deps: []dask.TaskKey{read},
			OutputSize: 2 << 20, EstDuration: sim.Milliseconds(1500),
		})
		segs = append(segs, seg)
	}
	g.Add(&dask.TaskSpec{
		Key:        dask.TaskKey(fmt.Sprintf("report-%s", pseudoHash("report"))),
		Deps:       segs,
		OutputSize: 256 << 10,
		Run: func(ctx *dask.TaskContext) {
			ctx.Compute(sim.Milliseconds(400))
			f, err := ctx.Open(ipReportPath, posixio.WRONLY|posixio.CREATE)
			if err != nil {
				panic(err)
			}
			f.Write(ctx.Proc(), 256<<10)
			f.Close(ctx.Proc())
		},
	})
	return g
}
