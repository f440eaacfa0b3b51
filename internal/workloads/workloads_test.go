package workloads

import (
	"math"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/dask"
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

// checkTableI asserts one run's Table I row: the structural counts exactly,
// I/O operations inside the paper's range, communications within 2× of it
// (they depend on emergent scheduling).
func checkTableI(t *testing.T, name string, seed int, r *studyRun) {
	t.Helper()
	want := TableI[name]
	if r.graphs != want.TaskGraphs {
		t.Errorf("%s seed %d: task graphs = %d, want %d", name, seed, r.graphs, want.TaskGraphs)
	}
	if r.tasks != want.DistinctTasks {
		t.Errorf("%s seed %d: distinct tasks = %d, want %d", name, seed, r.tasks, want.DistinctTasks)
	}
	if r.files != want.DistinctFiles {
		t.Errorf("%s seed %d: distinct files = %d, want %d", name, seed, r.files, want.DistinctFiles)
	}
	if r.ioOps < want.IOOpsLow || r.ioOps > want.IOOpsHigh {
		t.Errorf("%s seed %d: io ops = %d, want in [%d, %d]", name, seed, r.ioOps, want.IOOpsLow, want.IOOpsHigh)
	}
	if lo, hi := want.CommsLow/2, want.CommsHigh*2; r.comms < lo || r.comms > hi {
		t.Errorf("%s seed %d: communications = %d, want within [%d, %d] (paper: %d-%d)",
			name, seed, r.comms, lo, hi, want.CommsLow, want.CommsHigh)
	}
	t.Logf("%s seed %d: graphs=%d tasks=%d files=%d ops=%d comms=%d wall=%.1fs",
		name, seed, r.graphs, r.tasks, r.files, r.ioOps, r.comms, r.wall)
}

// The per-workflow tests below read seed 1 from the study TestPaperClaims
// shares, so they cost no run of their own.

func TestImageProcessingTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	r := studyOf(t, "imageprocessing")[0]
	checkTableI(t, "imageprocessing", 1, r)
	// Wall time "around one hundred seconds" (paper §IV-C): accept a wide
	// band, it is a simulator.
	if r.wall < 30 || r.wall > 300 {
		t.Errorf("imageprocessing wall = %.1fs, want O(100s)", r.wall)
	}
}

func TestResNet152TableI(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	r := studyOf(t, "resnet152")[0]
	checkTableI(t, "resnet152", 1, r)
	// The DXT truncation must actually have happened: the POSIX-counter op
	// count exceeds the DXT-observed one and a log is flagged partial.
	if r.posixOps <= r.ioOps {
		t.Errorf("resnet152: posix ops %d <= dxt ops %d; truncation missing", r.posixOps, r.ioOps)
	}
	if !r.dxtDropped {
		t.Error("resnet152: no darshan log flagged partial")
	}
}

func TestXGBoostTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	r := studyOf(t, "xgboost")[0]
	checkTableI(t, "xgboost", 1, r)
	// Fig. 7: a burst of unresponsive-event-loop warnings early in the run.
	if r.loopWarns < 200 || r.loopWarns > 400 {
		t.Errorf("xgboost: event-loop warnings = %d, want ~297", r.loopWarns)
	}
	if r.lastLoopAt > 500 {
		t.Errorf("xgboost: event-loop warnings extend to %.0fs, want within first 500s", r.lastLoopAt)
	}
	// Fig. 6: the read_parquet-fused-assign outputs exceed Dask's
	// recommended 128 MB.
	read := r.categories["read_parquet-fused-assign"]
	if read.n == 0 {
		t.Fatal("xgboost: no read_parquet-fused-assign executions found")
	}
	if read.minOut <= partitionMB {
		t.Errorf("xgboost: smallest fused-read output = %d, want > 128MB", read.minOut)
	}
}

func TestTableIStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run study")
	}
	// The structural metrics must be seed-invariant; the emergent ones must
	// stay within their (generous) bands across every seed of the study.
	for _, name := range Names() {
		for i, r := range studyOf(t, name) {
			checkTableI(t, name, i+1, r)
		}
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

// pseudoHash and tupleKey render a key's parts as strings, through the
// appends the generators render keys with.
func pseudoHash(name string, nums ...int) string { return string(appendHash(nil, name, nums...)) }

func tupleKey(name, hash string, index int) string {
	return string(appendTuple(nil, name, hash, index))
}

// TestPseudoHashGolden pins task keys to the bytes the fmt-based renderer
// produced (fmt.Sprint of each part, fmt.Sprintf("%012x") and "('%s-%s',
// %d)"): a key is part of every stored event, so none may move. The keys a
// graph interns are those bytes too.
func TestPseudoHashGolden(t *testing.T) {
	hashes := []struct {
		name string
		nums []int
		want string
	}{
		{"model", nil, "1c9e51f52e2d"},
		{"report", nil, "5026d89f1b26"},
		{"xgb-summary", nil, "b675092b269a"},
		{"", nil, "24d473ccebb4"},
		{"imread", []int{0}, "91dcb0fb4c8b"},
		{"imread", []int{7}, "91dcb103a110"},
		{"imread", []int{255}, "942aafb9e693"},
		{"imread", []int{256}, "942aafb5fdbc"},
		{"imread", []int{1000000}, "b47e7c1689fa"},
		{"norm", []int{3, 12}, "5ad0f0b62aa8"},
		{"gray", []int{0, 0}, "a77f667af65d"},
		{"blur", []int{99, 31}, "ec7210aee217"},
		{"train", []int{1, 2}, "4488f84b5bcb"},
		{"predict", []int{4096}, "1240294ee07b"},
		{"getitem", []int{3}, "7f960ca8febd"},
		{"getitem", []int{17}, "5ff78b4d4284"},
		{"predict", []int{0}, "c1356b78cadc"},
		{"a", []int{1, 12}, "9346781c83b9"},
		{"a", []int{11, 2}, "eba4368b8579"},
		{"neg", []int{-1}, "a808ee8b8b33"},
		{"neg", []int{math.MinInt64}, "09ab7ae02361"},
		{"max", []int{math.MaxInt64}, "a0fed5436a4d"},
	}
	for _, c := range hashes {
		if got := pseudoHash(c.name, c.nums...); got != c.want {
			t.Errorf("pseudoHash(%q, %v) = %q, want %q", c.name, c.nums, got, c.want)
		}
	}
	tuples := []struct {
		name, hash string
		index      int
		want       string
	}{
		{"getitem", "7f960ca8febd", 63, "('getitem-7f960ca8febd', 63)"},
		{"predict", "c1356b78cadc", 0, "('predict-c1356b78cadc', 0)"},
		{"drop_by_shallow_copy", "abc", -7, "('drop_by_shallow_copy-abc', -7)"},
		{"x", "", 1234567, "('x-', 1234567)"},
		{"random_split_take-and-a-name-longer-than-the-stack-buffer", "0123456789ab", 12, "('random_split_take-and-a-name-longer-than-the-stack-buffer-0123456789ab', 12)"},
	}
	for _, c := range tuples {
		if got := tupleKey(c.name, c.hash, c.index); got != c.want {
			t.Errorf("tupleKey(%q, %q, %d) = %q, want %q", c.name, c.hash, c.index, got, c.want)
		}
	}
	g := dask.NewGraph(1)
	interned := []struct{ got, want dask.TaskKey }{
		{hashKey(g, "imread", "imread", 7), "imread-91dcb103a110"},
		{hashKey(g, "normalize", "norm", 3, 12), "normalize-5ad0f0b62aa8"},
		{hashKey(g, "report", "report"), "report-5026d89f1b26"},
		{tupleTaskKey(g, "getitem", "getitem", 3, 63), "('getitem-7f960ca8febd', 63)"},
		{tupleTaskKey(g, "predict", "predict", 0, 0), "('predict-c1356b78cadc', 0)"},
		{modelKey, "model-combine-1c9e51f52e2d"},
	}
	for _, c := range interned {
		if c.got != c.want {
			t.Errorf("interned key %q, want %q", c.got, c.want)
		}
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
