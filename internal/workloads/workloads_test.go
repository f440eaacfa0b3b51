package workloads

import (
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/provenance"
)

func runOnce(t *testing.T, name string, seed uint64) *core.RunArtifacts {
	t.Helper()
	wf, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.Run(DefaultSession(name, "job-"+name, seed), wf)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func checkTableI(t *testing.T, name string, art *core.RunArtifacts) {
	t.Helper()
	want := TableI[name]
	graphs, err := art.TaskGraphs()
	if err != nil || graphs != want.TaskGraphs {
		t.Errorf("%s: task graphs = %d, want %d (%v)", name, graphs, want.TaskGraphs, err)
	}
	tasks, err := art.DistinctTasks()
	if err != nil || tasks != want.DistinctTasks {
		t.Errorf("%s: distinct tasks = %d, want %d (%v)", name, tasks, want.DistinctTasks, err)
	}
	if files := art.DistinctFiles(); files != want.DistinctFiles {
		t.Errorf("%s: distinct files = %d, want %d", name, files, want.DistinctFiles)
	}
	if ops := art.TotalIOOps(); ops < want.IOOpsLow || ops > want.IOOpsHigh {
		t.Errorf("%s: io ops = %d, want in [%d, %d]", name, ops, want.IOOpsLow, want.IOOpsHigh)
	}
	// Communications depend on emergent scheduling; allow a generous band
	// around the published range (same order, same ranking across
	// workflows is asserted separately).
	comms, err := art.TotalCommunications()
	if err != nil {
		t.Fatal(err)
	}
	lo := want.CommsLow / 2
	hi := want.CommsHigh * 2
	if comms < lo || comms > hi {
		t.Errorf("%s: communications = %d, want within [%d, %d] (paper: %d-%d)",
			name, comms, lo, hi, want.CommsLow, want.CommsHigh)
	}
	t.Logf("%s: graphs=%d tasks=%d files=%d ops=%d comms=%d wall=%.1fs",
		name, graphs, tasks, art.DistinctFiles(), art.TotalIOOps(), comms, art.Meta.WallSeconds)
}

func TestImageProcessingTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	art := runOnce(t, "imageprocessing", 1)
	checkTableI(t, "imageprocessing", art)
	// Wall time "around one hundred seconds" (paper §IV-C): accept a wide
	// band, it is a simulator.
	if w := art.Meta.WallSeconds; w < 30 || w > 300 {
		t.Errorf("imageprocessing wall = %.1fs, want O(100s)", w)
	}
}

func TestResNet152TableI(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	art := runOnce(t, "resnet152", 1)
	checkTableI(t, "resnet152", art)
	// The DXT truncation must actually have happened: the POSIX-counter op
	// count exceeds the DXT-observed one and the logs are flagged partial.
	if art.TotalPosixOps() <= art.TotalIOOps() {
		t.Errorf("resnet152: posix ops %d <= dxt ops %d; truncation missing",
			art.TotalPosixOps(), art.TotalIOOps())
	}
	partial := false
	for _, l := range art.DarshanLogs {
		if l.Job.Partial && l.Job.DXTDropped > 0 {
			partial = true
		}
	}
	if !partial {
		t.Error("resnet152: no darshan log flagged partial")
	}
}

func TestXGBoostTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	art := runOnce(t, "xgboost", 1)
	checkTableI(t, "xgboost", art)

	// Fig. 7: a burst of unresponsive-event-loop warnings early in the run,
	// correlated with the read_parquet-fused-assign tasks.
	warns, err := provenance.Drain(new(provenance.Decoder), art.Broker, provenance.TopicWarnings, (*provenance.Decoder).Warning)
	if err != nil {
		t.Fatal(err)
	}
	var loopWarns int
	var lastWarnAt float64
	for _, w := range warns {
		if w.Kind == dask.WarnEventLoop {
			loopWarns++
			if w.At.Seconds() > lastWarnAt {
				lastWarnAt = w.At.Seconds()
			}
		}
	}
	if loopWarns < 200 || loopWarns > 400 {
		t.Errorf("xgboost: event-loop warnings = %d, want ~297", loopWarns)
	}
	if lastWarnAt > 500 {
		t.Errorf("xgboost: event-loop warnings extend to %.0fs, want within first 500s", lastWarnAt)
	}

	// Fig. 6: the read_parquet-fused-assign outputs exceed Dask's
	// recommended 128 MB.
	execs, err := provenance.Drain(new(provenance.Decoder), art.Broker, provenance.TopicExecutions, (*provenance.Decoder).Execution)
	if err != nil {
		t.Fatal(err)
	}
	var readMax, readMin int64
	for _, e := range execs {
		if dask.KeyPrefix(e.Key) == "read_parquet-fused-assign" {
			if readMin == 0 || e.OutputSize < readMin {
				readMin = e.OutputSize
			}
			if e.OutputSize > readMax {
				readMax = e.OutputSize
			}
		}
	}
	if readMin <= 128<<20 {
		t.Errorf("xgboost: smallest fused-read output = %d, want > 128MB", readMin)
	}
	if readMax == 0 {
		t.Error("xgboost: no read_parquet-fused-assign executions found")
	}
}

func TestWorkflowRegistry(t *testing.T) {
	for _, name := range Names() {
		wf, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if wf.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, wf.Name())
		}
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown workflow accepted")
	}
	if Runs("xgboost") != 50 || Runs("resnet152") != 10 {
		t.Fatal("Runs() wrong")
	}
}

func TestDatasetFixedAcrossConstruction(t *testing.T) {
	a, b := NewImageProcessing(), NewImageProcessing()
	for i := range a.chunks {
		if a.chunks[i] != b.chunks[i] {
			t.Fatal("ImageProcessing dataset differs between constructions")
		}
	}
	x, y := NewXGBoost(), NewXGBoost()
	for i := range x.fileSize {
		if x.fileSize[i] != y.fileSize[i] {
			t.Fatal("XGBoost dataset differs between constructions")
		}
	}
}

func TestImageChunkBounds(t *testing.T) {
	w := NewImageProcessing()
	sum := 0
	for _, c := range w.chunks {
		if c < 10 || c > 25 {
			t.Fatalf("chunk count %d out of the paper's 10-25 band", c)
		}
		sum += c
	}
	if sum != w.totalChunks {
		t.Fatal("totalChunks inconsistent")
	}
}

func TestPseudoHashStability(t *testing.T) {
	if pseudoHash("a", 1) != pseudoHash("a", 1) {
		t.Fatal("pseudoHash unstable")
	}
	if pseudoHash("a", 1) == pseudoHash("a", 2) {
		t.Fatal("pseudoHash collision on trivial input")
	}
	if got := tupleKey("getitem", "abc123", 63); got != "('getitem-abc123', 63)" {
		t.Fatalf("tupleKey = %q", got)
	}
}

func TestTableIStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run study")
	}
	// The structural metrics must be seed-invariant; the emergent ones must
	// stay within their (generous) bands across several seeds.
	for seed := uint64(2); seed <= 4; seed++ {
		for _, name := range []string{"imageprocessing", "xgboost"} {
			art := runOnce(t, name, seed)
			want := TableI[name]
			tasks, _ := art.DistinctTasks()
			if tasks != want.DistinctTasks {
				t.Errorf("%s seed %d: tasks = %d", name, seed, tasks)
			}
			if f := art.DistinctFiles(); f != want.DistinctFiles {
				t.Errorf("%s seed %d: files = %d", name, seed, f)
			}
			if ops := art.TotalIOOps(); ops < want.IOOpsLow || ops > want.IOOpsHigh {
				t.Errorf("%s seed %d: ops = %d not in [%d,%d]", name, seed, ops, want.IOOpsLow, want.IOOpsHigh)
			}
			comms, _ := art.TotalCommunications()
			if comms < want.CommsLow/2 || comms > want.CommsHigh*2 {
				t.Errorf("%s seed %d: comms = %d not within 2x of [%d,%d]",
					name, seed, comms, want.CommsLow, want.CommsHigh)
			}
		}
	}
}
