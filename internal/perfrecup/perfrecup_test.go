package perfrecup

import (
	"encoding/xml"
	"fmt"
	"math"
	"strings"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/posixio"
	"taskprov/internal/sim"
)

// miniWorkflow: two graphs; graph 1 reads files and reduces (with one
// blocking task for warnings), graph 2 consumes graph 1's output.
type miniWorkflow struct{ files int }

func (m *miniWorkflow) Name() string { return "mini" }

func (m *miniWorkflow) Stage(env *core.Env) {
	for i := 0; i < m.files; i++ {
		env.PFS.CreateNow(fmt.Sprintf("/lus/in/f%03d", i), 4<<20)
	}
}

func (m *miniWorkflow) Run(p *sim.Proc, cl *dask.Client, env *core.Env) {
	g := dask.NewGraph(1)
	var deps []dask.TaskKey
	for i := 0; i < m.files; i++ {
		i := i
		key := dask.TaskKey(fmt.Sprintf("load-%04d", i))
		deps = append(deps, key)
		g.Add(&dask.TaskSpec{
			Key: key, OutputSize: 4 << 20,
			Run: func(ctx *dask.TaskContext) {
				f, err := ctx.Open(fmt.Sprintf("/lus/in/f%03d", i), posixio.RDONLY)
				if err != nil {
					panic(err)
				}
				f.Read(ctx.Proc(), 4<<20)
				f.Close(ctx.Proc())
				ctx.Compute(sim.Milliseconds(80))
			},
		})
	}
	g.Add(&dask.TaskSpec{
		Key: "slow-blocker-01", OutputSize: 1 << 20,
		EstDuration: sim.Seconds(8), BlocksEventLoop: true,
	})
	g.Add(&dask.TaskSpec{Key: "reduce-0000", Deps: deps, EstDuration: sim.Milliseconds(60), OutputSize: 128})
	cl.SubmitAndWait(p, g)

	g2 := dask.NewGraph(2)
	g2.AddExternal("reduce-0000")
	g2.Add(&dask.TaskSpec{
		Key: "writer-0001", Deps: []dask.TaskKey{"reduce-0000"}, OutputSize: 64,
		Run: func(ctx *dask.TaskContext) {
			f, err := ctx.Open("/lus/out/result", posixio.WRONLY|posixio.CREATE)
			if err != nil {
				panic(err)
			}
			f.Write(ctx.Proc(), 1<<20)
			f.Close(ctx.Proc())
			ctx.Compute(sim.Milliseconds(20))
		},
	})
	cl.SubmitAndWait(p, g2)
}

var cachedArt *core.RunArtifacts

func miniRun(t *testing.T) *core.RunArtifacts {
	t.Helper()
	if cachedArt != nil {
		return cachedArt
	}
	cfg := core.DefaultSessionConfig("job-mini", 11)
	cfg.Platform.NodeSpeedCV = 0
	cfg.PFS.InterferenceLoad = 0
	cfg.Dask.WorkersPerNode = 2
	cfg.Dask.ThreadsPerWorker = 2
	cfg.Dask.EventLoopMonitorThreshold = sim.Seconds(1)
	art, err := core.Run(cfg, &miniWorkflow{files: 24})
	if err != nil {
		t.Fatal(err)
	}
	cachedArt = art
	return art
}

func TestExecutionsView(t *testing.T) {
	art := miniRun(t)
	f, err := ExecutionsView(art)
	if err != nil {
		t.Fatal(err)
	}
	if f.NRows() != 27 { // 24 loads + blocker + reduce + writer
		t.Fatalf("executions = %d", f.NRows())
	}
	for _, col := range []string{"key", "prefix", "worker", "hostname", "thread_id", "start", "stop", "duration", "output_size", "graph_id"} {
		if !f.HasCol(col) {
			t.Fatalf("missing column %s", col)
		}
	}
	if u := f.UniqueStrings("prefix"); len(u) != 4 { // load, slow-blocker, reduce, writer
		t.Fatalf("prefixes = %v", u)
	}
}

func TestDXTViewAndPosixView(t *testing.T) {
	art := miniRun(t)
	dxt, err := DXTView(art)
	if err != nil {
		t.Fatal(err)
	}
	if dxt.NRows() != 25 { // 24 reads + 1 write
		t.Fatalf("dxt rows = %d", dxt.NRows())
	}
	posix, err := PosixView(art)
	if err != nil {
		t.Fatal(err)
	}
	if posix.NRows() != 25 { // 25 file records across workers
		t.Fatalf("posix rows = %d", posix.NRows())
	}
}

func TestAttributeIOToTasks(t *testing.T) {
	art := miniRun(t)
	att, err := AttributeIOToTasks(art)
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	keyCol := att.Col("key")
	opCol := att.Col("op")
	pathCol := att.Col("path")
	for i := 0; i < att.NRows(); i++ {
		if keyCol.Str(i) == "" {
			continue
		}
		matched++
		// Reads must be attributed to load tasks, the write to the writer.
		if opCol.Str(i) == "read" && !strings.HasPrefix(keyCol.Str(i), "load-") {
			t.Fatalf("read of %s attributed to %s", pathCol.Str(i), keyCol.Str(i))
		}
		if opCol.Str(i) == "write" && keyCol.Str(i) != "writer-0001" {
			t.Fatalf("write attributed to %s", keyCol.Str(i))
		}
	}
	if matched != att.NRows() {
		t.Fatalf("only %d/%d I/O ops attributed", matched, att.NRows())
	}
}

// TestLineageIOMatchesJoin: a task's lineage lists the segments the
// (hostname, pthread, time) join attributes to it, no more and no fewer.
func TestLineageIOMatchesJoin(t *testing.T) {
	art := miniRun(t)
	att, err := AttributeIOToTasks(art)
	if err != nil {
		t.Fatal(err)
	}
	joined := make(map[string]int)
	for i, keys := 0, att.Col("key"); i < att.NRows(); i++ {
		joined[keys.Str(i)]++
	}
	execs, err := ExecutionsView(art)
	if err != nil {
		t.Fatal(err)
	}
	for i, keys := 0, execs.Col("key"); i < execs.NRows(); i++ {
		l, err := BuildLineage(art, keys.Str(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(l.IO) != joined[l.Key] {
			t.Errorf("%s: lineage lists %d I/O records, the join attributes %d", l.Key, len(l.IO), joined[l.Key])
		}
	}
}

func TestTaskIOSummary(t *testing.T) {
	art := miniRun(t)
	sum, err := TaskIOSummary(art)
	if err != nil {
		t.Fatal(err)
	}
	if sum.NRows() != 27 {
		t.Fatalf("rows = %d", sum.NRows())
	}
	keyCol := sum.Col("key")
	opsCol := sum.Col("io_ops")
	bytesCol := sum.Col("io_bytes")
	for i := 0; i < sum.NRows(); i++ {
		k := keyCol.Str(i)
		switch {
		case strings.HasPrefix(k, "load-"):
			if opsCol.Int(i) != 1 || bytesCol.Float(i) != 4<<20 {
				t.Fatalf("load io = %d ops %v bytes", opsCol.Int(i), bytesCol.Float(i))
			}
		case k == "reduce-0000" || k == "slow-blocker-01":
			if opsCol.Int(i) != 0 {
				t.Fatalf("%s has io ops %d", k, opsCol.Int(i))
			}
		}
	}
}

func TestPhases(t *testing.T) {
	art := miniRun(t)
	b, err := Phases(art)
	if err != nil {
		t.Fatal(err)
	}
	if b.Workflow != "mini" || b.TotalSeconds <= 0 {
		t.Fatalf("breakdown = %+v", b)
	}
	if b.IOSeconds <= 0 || b.ComputeSeconds <= 0 {
		t.Fatalf("phases empty: %+v", b)
	}
	if b.IOOps != 25 || b.Tasks != 27 {
		t.Fatalf("counts: %+v", b)
	}
	// Coordination overhead means total wall > any single phase here.
	if b.TotalSeconds < b.IOSeconds/4 {
		t.Fatalf("total %.2f implausible vs io %.2f", b.TotalSeconds, b.IOSeconds)
	}
}

func TestAggregatePhases(t *testing.T) {
	runs := []PhaseBreakdown{
		{Workflow: "x", IOSeconds: 1, CommSeconds: 2, ComputeSeconds: 8, TotalSeconds: 10},
		{Workflow: "x", IOSeconds: 2, CommSeconds: 2, ComputeSeconds: 10, TotalSeconds: 12},
	}
	s := AggregatePhases(runs)
	if s.Runs != 2 || s.MeanIO != 1.5 || s.MeanTotal != 11 {
		t.Fatalf("stats = %+v", s)
	}
	if s.NormTotal != 1.0 { // total is the max in both runs
		t.Fatalf("norm total = %v", s.NormTotal)
	}
	if s.StdIO == 0 {
		t.Fatal("std missing")
	}
	if AggregatePhases(nil).Runs != 0 {
		t.Fatal("empty aggregate wrong")
	}
}

func TestWarningHistogramAndRender(t *testing.T) {
	art := miniRun(t)
	h, err := WarningHistogram(art, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	loop, ok := h[string(dask.WarnEventLoop)]
	if !ok || loop.Total() == 0 {
		t.Fatalf("no event loop warnings: %v", h)
	}
	out := RenderWarningHistogram(h, 2.0)
	if !strings.Contains(out, "unresponsive_event_loop") {
		t.Fatalf("render = %q", out)
	}
}

func TestIOTimelineRender(t *testing.T) {
	art := miniRun(t)
	out, err := IOTimeline(art, 40, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tid") || !strings.Contains(out, "R") {
		t.Fatalf("timeline = %q", out)
	}
	// One line per thread that did I/O.
	lines := strings.Count(out, "tid ")
	if lines == 0 || lines > 8 {
		t.Fatalf("timeline threads = %d", lines)
	}
}

func TestCommScatter(t *testing.T) {
	art := miniRun(t)
	buckets, err := CommScatter(art)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) == 0 {
		t.Fatal("no comm buckets")
	}
	total := 0
	for _, b := range buckets {
		total += b.Count
		if b.MeanSec <= 0 {
			t.Fatalf("bucket without duration: %+v", b)
		}
	}
	comms, _ := art.TotalCommunications()
	if int64(total) != comms {
		t.Fatalf("bucket total %d != comms %d", total, comms)
	}
	out := RenderCommScatter(buckets)
	if !strings.Contains(out, "inter/intra") {
		t.Fatalf("render = %q", out)
	}
}

func TestParallelCoords(t *testing.T) {
	art := miniRun(t)
	pc, err := ParallelCoords(art)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted by duration descending; the blocking 8s task must be first.
	if pc.Col("prefix").Str(0) != "slow-blocker" {
		t.Fatalf("longest task = %s", pc.Col("prefix").Str(0))
	}
	out := RenderParallelCoords(pc, 5)
	if !strings.Contains(out, "slow-blocker") || !strings.Contains(out, "per-category") {
		t.Fatalf("render = %q", out)
	}
}

func TestLineage(t *testing.T) {
	art := miniRun(t)
	l, err := BuildLineage(art, "load-0003")
	if err != nil {
		t.Fatal(err)
	}
	if l.GraphID != 1 || l.Worker == "" || l.ThreadID == 0 {
		t.Fatalf("lineage = %+v", l)
	}
	if len(l.States) < 4 {
		t.Fatalf("states = %+v", l.States)
	}
	if len(l.IO) != 1 || l.IO[0].Op != "read" || l.IO[0].Bytes != 4<<20 {
		t.Fatalf("io = %+v", l.IO)
	}
	out := l.Render()
	for _, want := range []string{"task load-0003", "states:", "I/O records (1):", "PFS /lus/grand"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// The reducer's lineage shows dependencies and (likely) movements.
	lr, err := BuildLineage(art, "reduce-0000")
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Deps) != 24 {
		t.Fatalf("reduce deps = %d", len(lr.Deps))
	}
	if _, err := BuildLineage(art, "ghost-key"); err == nil {
		t.Fatal("lineage for unknown key succeeded")
	}
}

func TestTableIRowRender(t *testing.T) {
	art := miniRun(t)
	row, err := RenderTableIRow(art)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(row, "mini") || !strings.Contains(row, "tasks=27") {
		t.Fatalf("row = %q", row)
	}
}

func TestStatsFunctions(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Fatal("mean")
	}
	if math.Abs(Std(xs)-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std = %v", Std(xs))
	}
	lo, hi := MinMax(xs)
	if lo != 1 || hi != 5 {
		t.Fatal("minmax")
	}
	if Percentile(xs, 50) != 3 || Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Fatal("percentile")
	}
	if p := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(p-1) > 1e-12 {
		t.Fatalf("pearson = %v", p)
	}
	if p := Pearson([]float64{1, 2, 3}, []float64{6, 4, 2}); math.Abs(p+1) > 1e-12 {
		t.Fatalf("pearson = %v", p)
	}
	// Spearman is rank-based: monotonic nonlinear = 1.
	if s := Spearman([]float64{1, 2, 3, 4}, []float64{1, 10, 100, 1000}); math.Abs(s-1) > 1e-12 {
		t.Fatalf("spearman = %v", s)
	}
	h := NewHistogram([]float64{0.5, 1.5, 2.5, 99}, 0, 3, 3)
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 2 {
		t.Fatalf("hist = %v", h.Counts)
	}
	if h.Total() != 4 {
		t.Fatalf("hist total = %d", h.Total())
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean")
	}
}

func TestHeartbeatsAndTransitionsViews(t *testing.T) {
	art := miniRun(t)
	hb, err := HeartbeatsView(art)
	if err != nil || hb.NRows() == 0 {
		t.Fatalf("heartbeats = %d, %v", hb.NRows(), err)
	}
	tr, err := TransitionsView(art)
	if err != nil || tr.NRows() == 0 {
		t.Fatalf("transitions = %d, %v", tr.NRows(), err)
	}
	tm, err := TaskMetaView(art)
	if err != nil || tm.NRows() != 27 {
		t.Fatalf("task meta = %d, %v", tm.NRows(), err)
	}
}

func TestWindowStats(t *testing.T) {
	art := miniRun(t)
	full, err := Window(art, 0, art.Meta.WallSeconds+10)
	if err != nil {
		t.Fatal(err)
	}
	if full.TasksActive != 27 || full.TasksStarted != 27 || full.TasksFinished != 27 {
		t.Fatalf("full window tasks = %+v", full)
	}
	if full.IOOps != 25 {
		t.Fatalf("full window io = %d", full.IOOps)
	}
	if full.BusiestPrefix == "" {
		t.Fatal("busiest prefix empty")
	}
	// Empty window has nothing.
	empty, err := Window(art, art.Meta.WallSeconds+100, art.Meta.WallSeconds+200)
	if err != nil {
		t.Fatal(err)
	}
	if empty.TasksActive != 0 || empty.IOOps != 0 || empty.Transfers != 0 {
		t.Fatalf("empty window = %+v", empty)
	}
	// Windows partition activity sensibly: two halves together cover at
	// least the full compute time.
	mid := full.To / 2
	h1, _ := Window(art, 0, mid)
	h2, _ := Window(art, mid, full.To)
	sum := h1.ComputeSeconds + h2.ComputeSeconds
	if sum < full.ComputeSeconds-1e-6 || sum > full.ComputeSeconds+1e-6 {
		t.Fatalf("window halves: %.3f + %.3f != %.3f", h1.ComputeSeconds, h2.ComputeSeconds, full.ComputeSeconds)
	}
	out := full.Render()
	if !strings.Contains(out, "tasks: 27 active") {
		t.Fatalf("render = %q", out)
	}
}

func TestCompareSchedules(t *testing.T) {
	art := miniRun(t)
	// Same run compared with itself: perfect agreement.
	self, err := CompareSchedules(art, art)
	if err != nil {
		t.Fatal(err)
	}
	if self.CommonTasks != 27 || self.SameWorker != 1.0 || self.OrderAgreement < 0.999 {
		t.Fatalf("self comparison = %+v", self)
	}
	if self.WallDeltaSec != 0 {
		t.Fatalf("self wall delta = %v", self.WallDeltaSec)
	}
	// A different seed: same tasks, (very likely) different placement.
	cfg := core.DefaultSessionConfig("job-mini-2", 1234)
	cfg.Platform.NodeSpeedCV = 0
	cfg.PFS.InterferenceLoad = 0
	cfg.Dask.WorkersPerNode = 2
	cfg.Dask.ThreadsPerWorker = 2
	other, err := core.Run(cfg, &miniWorkflow{files: 24})
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareSchedules(art, other)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.CommonTasks != 27 {
		t.Fatalf("common tasks = %d", cmp.CommonTasks)
	}
	if cmp.SameWorker >= 1.0 {
		t.Fatal("different seeds produced identical placement (suspicious)")
	}
	out := cmp.Render()
	if !strings.Contains(out, "common tasks: 27") {
		t.Fatalf("render = %q", out)
	}
}

func wellFormedSVG(t *testing.T, svg string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("svg not well-formed: %v", err)
		}
	}
}

func TestSVGRenderers(t *testing.T) {
	art := miniRun(t)

	b, err := Phases(art)
	if err != nil {
		t.Fatal(err)
	}
	stats := []PhaseStats{AggregatePhases([]PhaseBreakdown{b, b})}
	svg := PhaseBarsSVG(stats)
	wellFormedSVG(t, svg)
	if !strings.Contains(svg, "mini") || strings.Count(svg, "<rect") < 5 {
		t.Fatal("phase bars svg missing content")
	}

	h, err := WarningHistogram(art, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	svg = WarningHistogramSVG(h, 2.0)
	wellFormedSVG(t, svg)
	if !strings.Contains(svg, "unresponsive_event_loop") {
		t.Fatal("warning svg missing series")
	}

	svg, err = IOTimelineSVG(art)
	if err != nil {
		t.Fatal(err)
	}
	wellFormedSVG(t, svg)
	if strings.Count(svg, "<rect") < 25 { // one per I/O op + background
		t.Fatalf("timeline svg has %d rects", strings.Count(svg, "<rect"))
	}

	svg, err = CommScatterSVG(art)
	if err != nil {
		t.Fatal(err)
	}
	wellFormedSVG(t, svg)
	comms, _ := art.TotalCommunications()
	if int64(strings.Count(svg, "<circle")) != comms {
		t.Fatalf("scatter svg has %d points, want %d", strings.Count(svg, "<circle"), comms)
	}
}

func TestSVGEmptyInputs(t *testing.T) {
	wellFormedSVG(t, PhaseBarsSVG(nil))
	wellFormedSVG(t, WarningHistogramSVG(map[string]Histogram{}, 10))
}

func TestCorrelate(t *testing.T) {
	art := miniRun(t)
	rep, err := Correlate(art, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	// The 8s blocking task dominates long-task time; warnings occur during
	// it, so the correlation must be strongly positive.
	if rep.WarningsVsLongTasks < 0.5 {
		t.Fatalf("warnings vs long tasks = %.3f, want strongly positive", rep.WarningsVsLongTasks)
	}
	if len(rep.LongTaskPrefixes) == 0 || rep.LongTaskPrefixes[0].Prefix != "slow-blocker" {
		t.Fatalf("long task prefixes = %+v", rep.LongTaskPrefixes)
	}
	if rep.LongTaskPrefixes[0].Share <= 0.5 {
		t.Fatalf("blocker share = %v", rep.LongTaskPrefixes[0].Share)
	}
	out := rep.Render()
	if !strings.Contains(out, "slow-blocker") || !strings.Contains(out, "pearson") {
		t.Fatalf("render = %q", out)
	}
}

func TestWorkerUtilizationView(t *testing.T) {
	art := miniRun(t)
	u, err := WorkerUtilizationView(art)
	if err != nil {
		t.Fatal(err)
	}
	if u.NRows() != 4 { // 2 nodes x 2 workers
		t.Fatalf("workers = %d", u.NRows())
	}
	for i := 0; i < u.NRows(); i++ {
		if u.Col("samples").Int(i) == 0 {
			t.Fatalf("worker %s has no heartbeat samples", u.Col("worker").Str(i))
		}
		if u.Col("peak_memory").Float(i) < u.Col("mean_memory").Float(i) {
			t.Fatal("peak < mean memory")
		}
	}
}
