package workloads

import (
	"fmt"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/posixio"
	"taskprov/internal/sim"
)

// ResNet152 reproduces the paper's fine-tuned ResNet152 batch-prediction
// workflow over the Imagewang subset: a single task graph of
// @dask.delayed-style load, transform, and predict tasks (Table I: 8645
// tasks over 3929 files). Loads read one small image file each, transforms
// are CPU preprocessing, and predicts run batches of 5 on the accelerator.
//
// The paper's Table I I/O count for this workflow is incomplete because
// Darshan's DXT buffers overflow (footnote 9); the session configuration in
// the benchmark harness reproduces that by bounding DXTBufferSegments.
type ResNet152 struct {
	NumImages int
	BatchSize int
	sizes     []int64 // per-image file size
	tensors   []int64 // per-image transformed tensor size
}

// NewResNet152 builds the generator with the calibrated dataset: 3929
// images of 80–400 KB (two read ops above 256 KB), batches of 5.
func NewResNet152() *ResNet152 {
	w := &ResNet152{NumImages: 3929, BatchSize: 5}
	rng := datasetRNG("resnet152")
	w.sizes = make([]int64, w.NumImages)
	w.tensors = make([]int64, w.NumImages)
	for i := range w.sizes {
		w.sizes[i] = int64(rng.IntBetween(80, 400)) << 10
		// Tensor size depends on the crop/resize path the image takes.
		w.tensors[i] = int64(rng.IntBetween(350, 1400)) << 10
	}
	return w
}

// Name implements core.Workflow.
func (w *ResNet152) Name() string { return "resnet152" }

func (w *ResNet152) imagePath(i int) string {
	return fmt.Sprintf("/lus/grand/imagewang/val/ILSVRC-%05d.JPEG", i)
}

// Stage implements core.Workflow.
func (w *ResNet152) Stage(env *core.Env) {
	for i := 0; i < w.NumImages; i++ {
		env.PFS.CreateNow(w.imagePath(i), w.sizes[i])
	}
}

// Run implements core.Workflow: one task graph, submitted at once.
func (w *ResNet152) Run(p *sim.Proc, cl *dask.Client, env *core.Env) {
	g := dask.NewGraph(1)
	transforms := make([]dask.TaskKey, w.NumImages)
	for i := 0; i < w.NumImages; i++ {
		i := i
		size := w.sizes[i]
		load := dask.TaskKey(fmt.Sprintf("load-%s", pseudoHash("load", i)))
		g.Add(&dask.TaskSpec{
			Key:        load,
			OutputSize: size,
			Run: func(ctx *dask.TaskContext) {
				f, err := ctx.Open(w.imagePath(i), posixio.RDONLY)
				if err != nil {
					panic(err)
				}
				// JPEG decode reads the file in <=256 KiB buffers.
				for off := int64(0); off < size; off += 256 << 10 {
					f.Pread(ctx.Proc(), off, 256<<10)
				}
				f.Close(ctx.Proc())
				ctx.Compute(sim.Milliseconds(60))
			},
		})
		tr := dask.TaskKey(fmt.Sprintf("transform-%s", pseudoHash("transform", i)))
		g.Add(&dask.TaskSpec{
			Key: tr, Deps: []dask.TaskKey{load},
			OutputSize:  w.tensors[i], // normalized tensor
			EstDuration: sim.Milliseconds(320),
		})
		transforms[i] = tr
	}
	var preds []dask.TaskKey
	for b := 0; b*w.BatchSize < w.NumImages; b++ {
		lo := b * w.BatchSize
		hi := lo + w.BatchSize
		if hi > w.NumImages {
			hi = w.NumImages
		}
		pred := dask.TaskKey(fmt.Sprintf("predict-%s", pseudoHash("predict", b)))
		g.Add(&dask.TaskSpec{
			Key: pred, Deps: append([]dask.TaskKey(nil), transforms[lo:hi]...),
			OutputSize:  5 << 10,
			EstDuration: sim.Milliseconds(2400),
		})
		preds = append(preds, pred)
	}
	g.Add(&dask.TaskSpec{
		Key:  dask.TaskKey(fmt.Sprintf("summarize-%s", pseudoHash("summary"))),
		Deps: preds, OutputSize: 64 << 10, EstDuration: sim.Milliseconds(500),
	})
	cl.SubmitAndWait(p, g)
}
