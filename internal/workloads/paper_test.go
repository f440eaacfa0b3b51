package workloads

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/perfrecup"
)

// TestPaperClaims is the paper's evaluation (§IV) as one test, with one
// subtest per artifact of EXPERIMENTS.md: every ✔ there is a threshold
// below, and every "Known delta" a pinned expectation, so a change that
// moves a finding either way fails. Each subtest logs the claims it checked
// and its figure block, drawn with the renderers cmd/perfrecup prints with,
// so
//
//	go test -count=1 -run TestPaperClaims -v ./internal/workloads
//
// (make paper) regenerates EXPERIMENTS.md's blocks. The study is seeds 1–4
// of each workflow; the paper's full counts (10/10/50 runs) are `taskprov
// run -workflow W -runs N` followed by `perfrecup table1` and `perfrecup
// phases`.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run study")
	}
	for _, c := range []struct {
		name  string
		check func(*testing.T)
	}{
		{"TableI", claimTableI},
		{"Fig3", claimFig3},
		{"Fig4", claimFig4},
		{"Fig5", claimFig5},
		{"Fig6", claimFig6},
		{"Fig7", claimFig7},
		{"Fig8", claimFig8},
		{"Footnote9", claimFootnote9},
		{"Ablations", claimAblations},
	} {
		t.Run(c.name, c.check)
	}
}

// studySeeds is the number of seeded runs per workflow behind Table I and
// Fig. 3; every per-run claim holds at each of them.
const studySeeds = 4

// claim checks one line of EXPERIMENTS.md against what was measured, and
// logs it either way.
func claim(t *testing.T, ok bool, text, measured string, args ...any) {
	t.Helper()
	m := fmt.Sprintf(measured, args...)
	if !ok {
		t.Errorf("✘ %s — measured %s", text, m)
		return
	}
	t.Logf("✔ %s — measured %s", text, m)
}

// studyRun is what the claims read from one default-session run, taken
// before the run is dropped: a held run costs 18–34 MB of heap, and the
// study has twelve.
type studyRun struct {
	graphs, tasks, files   int
	ioOps, posixOps, comms int64
	events                 int64
	wall                   float64
	dxtDropped             bool // a Darshan log is flagged partial with DXT segments dropped
	layers                 bool // metadata.json carries Fig. 1's three layers
	phases                 perfrecup.PhaseBreakdown
	blocks                 map[string]string // figure blocks, by subtest

	// Fig. 4 (imageprocessing): the I/O of each graph, the fewest and most
	// distinct 4 MiB chunks read of one input image, and the share of I/O
	// operations within burstWindow of a graph's submission or completion.
	ioPhases   []ioPhase
	imageReads [2]int
	burstShare float64

	// Fig. 5 (resnet152): the communication buckets, and when the slowest
	// transfer of each started.
	comm      []perfrecup.CommBucket
	slowestAt []float64

	// Figs. 6–8 (xgboost).
	categories           map[string]category
	loopWarns, gcWarns   int
	lastLoopAt, lastGCAt float64
	firstTrainAt         float64
	corr                 perfrecup.CorrelationReport
	lineage, readLineage *perfrecup.Lineage
}

// ioPhase is one task graph's I/O in Fig. 4.
type ioPhase struct {
	reads, writes           int
	meanReadAt, meanWriteAt float64
	smallWrites, bigReads   bool // every write < 1 MiB, every read >= 1 MiB
}

func (p ioPhase) String() string {
	return fmt.Sprintf("%d reads at %.1f s → %d writes at %.1f s", p.reads, p.meanReadAt, p.writes, p.meanWriteAt)
}

// category is one task prefix in Fig. 6.
type category struct {
	n              int
	maxDur         float64
	minOut, maxOut int64
}

const (
	smallIO     = 1 << 20   // IOTimeline's lowercase cutoff
	burstWindow = 3.0       // seconds either side of a graph boundary
	partitionMB = 128 << 20 // the partition size Dask recommends staying under (Fig. 6)
)

// study memoizes the reduced runs for the test binary, so the subtests share
// them whichever of them -run selects.
var study struct {
	sync.Mutex
	runs map[string][]*studyRun // by workflow, seeds 1..studySeeds
}

// studyOf returns seeds 1..studySeeds of one workflow, running them the
// first time it is asked.
func studyOf(t *testing.T, name string) []*studyRun {
	t.Helper()
	study.Lock()
	defer study.Unlock()
	if runs := study.runs[name]; runs != nil {
		return runs
	}
	runs := make([]*studyRun, studySeeds)
	sideBySide(t, len(runs), func(i int) (err error) {
		runs[i], err = runStudy(name, uint64(i+1))
		return err
	})
	if study.runs == nil {
		study.runs = make(map[string][]*studyRun)
	}
	study.runs[name] = runs
	return runs
}

// sideBySide calls run(0) … run(n-1), GOMAXPROCS of them at a time — each
// session is a kernel of its own, and each run is reduced before it is
// dropped — and fails t with every error.
func sideBySide(t *testing.T, n int, run func(i int) error) {
	t.Helper()
	errs := make([]error, n)
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			errs[i] = run(i)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// runStudy runs one seed of the named workflow in its default session and
// takes from the run everything a claim reads.
func runStudy(name string, seed uint64) (*studyRun, error) {
	wf, err := New(name)
	if err != nil {
		return nil, err
	}
	art, err := core.Run(DefaultSession(name, fmt.Sprintf("%s-%04d", name, seed), seed), wf)
	if err != nil {
		return nil, err
	}
	r := &studyRun{
		files:    art.DistinctFiles(),
		ioOps:    art.TotalIOOps(),
		posixOps: art.TotalPosixOps(),
		events:   collected(art),
		wall:     art.Meta.WallSeconds,
		blocks:   map[string]string{},
	}
	if r.graphs, err = art.TaskGraphs(); err != nil {
		return nil, err
	}
	if r.tasks, err = art.DistinctTasks(); err != nil {
		return nil, err
	}
	if r.comms, err = art.TotalCommunications(); err != nil {
		return nil, err
	}
	if r.phases, err = perfrecup.Phases(art); err != nil {
		return nil, err
	}
	for _, l := range art.DarshanLogs {
		r.dxtDropped = r.dxtDropped || (l.Job.Partial && l.Job.DXTDropped > 0)
	}
	m := art.Meta
	r.layers = len(m.Platform.NodeList) > 0 && m.Storage.OSTs > 0 &&
		m.Software.OS != "" && m.Job.Script != "" &&
		m.DaskConfig.WorkersPerNode > 0 && m.Instrumentation.DXTEnabled

	switch name {
	case "imageprocessing":
		err = reduceFig4(r, art)
	case "resnet152":
		err = reduceFig5(r, art)
	case "xgboost":
		err = reduceXGBoost(r, art)
	}
	return r, err
}

func reduceFig4(r *studyRun, art *core.RunArtifacts) error {
	graphs, err := art.Records().Graphs()
	if err != nil {
		return err
	}
	done := make([]float64, len(graphs))
	for _, g := range graphs {
		done[g.GraphID-1] = g.At
	}
	metas, err := art.Records().TaskMeta()
	if err != nil {
		return err
	}
	submitted := make([]float64, len(done))
	for i := range submitted {
		submitted[i] = math.Inf(1)
	}
	for _, m := range metas {
		submitted[m.GraphID-1] = min(submitted[m.GraphID-1], m.At.Seconds())
	}
	boundaries := append(submitted, done...)
	dxt, err := perfrecup.DXTView(art)
	if err != nil {
		return err
	}
	r.ioPhases = make([]ioPhase, len(done))
	for i := range r.ioPhases {
		r.ioPhases[i].smallWrites, r.ioPhases[i].bigReads = true, true
	}
	chunks := map[string]map[int64]bool{}
	inBurst := 0
	path, op, length, offset, start := dxt.Col("path"), dxt.Col("op"), dxt.Col("length"), dxt.Col("offset"), dxt.Col("start")
	for i := 0; i < dxt.NRows(); i++ {
		at := start.Float(i)
		g := sort.SearchFloat64s(done, at)
		if g == len(done) {
			g--
		}
		ph := &r.ioPhases[g]
		if op.Str(i) == "read" {
			ph.reads++
			ph.meanReadAt += at
			ph.bigReads = ph.bigReads && length.Int(i) >= smallIO
			if p := path.Str(i); strings.Contains(p, "/images/") {
				if chunks[p] == nil {
					chunks[p] = map[int64]bool{}
				}
				chunks[p][offset.Int(i)/ipChunk] = length.Int(i) == ipChunk
			}
		} else {
			ph.writes++
			ph.meanWriteAt += at
			ph.smallWrites = ph.smallWrites && length.Int(i) < smallIO
		}
		for _, b := range boundaries {
			if math.Abs(at-b) <= burstWindow {
				inBurst++
				break
			}
		}
	}
	for i := range r.ioPhases {
		ph := &r.ioPhases[i]
		ph.meanReadAt /= float64(ph.reads)
		ph.meanWriteAt /= float64(ph.writes)
	}
	r.imageReads = [2]int{math.MaxInt, 0}
	for _, cs := range chunks {
		n := 0
		for _, whole := range cs {
			if whole {
				n++
			}
		}
		r.imageReads = [2]int{min(r.imageReads[0], n), max(r.imageReads[1], n)}
	}
	if len(chunks) != NewImageProcessing().NumImages {
		return fmt.Errorf("read %d input images, the dataset has %d", len(chunks), NewImageProcessing().NumImages)
	}
	r.burstShare = float64(inBurst) / float64(dxt.NRows())
	r.blocks["Fig4"], err = perfrecup.IOTimeline(art, 110, smallIO)
	return err
}

func reduceFig5(r *studyRun, art *core.RunArtifacts) error {
	var err error
	if r.comm, err = perfrecup.CommScatter(art); err != nil {
		return err
	}
	transfers, err := art.Records().Transfers()
	if err != nil {
		return err
	}
	r.slowestAt = make([]float64, len(r.comm))
	for i, b := range r.comm {
		slowest := -1.0
		for _, tr := range transfers {
			if d := (tr.Stop - tr.Start).Seconds(); tr.Bytes >= b.LoBytes && tr.Bytes < b.HiBytes && d > slowest {
				slowest, r.slowestAt[i] = d, tr.Start.Seconds()
			}
		}
	}
	r.blocks["Fig5"] = perfrecup.RenderCommScatter(r.comm)
	return nil
}

func reduceXGBoost(r *studyRun, art *core.RunArtifacts) error {
	execs, err := art.Records().Executions()
	if err != nil {
		return err
	}
	r.categories = map[string]category{}
	r.firstTrainAt = math.Inf(1)
	for _, e := range execs {
		p := dask.KeyPrefix(e.Key)
		c, ok := r.categories[p]
		if !ok {
			c.minOut = math.MaxInt64
		}
		d := (e.Stop - e.Start).Seconds()
		c.n++
		c.maxDur = max(c.maxDur, d)
		c.minOut, c.maxOut = min(c.minOut, e.OutputSize), max(c.maxOut, e.OutputSize)
		r.categories[p] = c
		if p == "train-xgboost" {
			r.firstTrainAt = min(r.firstTrainAt, e.Start.Seconds())
		}
	}

	warns, err := art.Records().Warnings()
	if err != nil {
		return err
	}
	for _, w := range warns {
		switch w.Kind {
		case dask.WarnEventLoop:
			r.loopWarns++
			r.lastLoopAt = max(r.lastLoopAt, w.At.Seconds())
		case dask.WarnGC:
			r.gcWarns++
			r.lastGCAt = max(r.lastGCAt, w.At.Seconds())
		}
	}
	if r.corr, err = perfrecup.Correlate(art, 50); err != nil {
		return err
	}

	pc, err := perfrecup.ParallelCoords(art)
	if err != nil {
		return err
	}
	r.blocks["Fig6"] = perfrecup.RenderParallelCoords(pc, 15)
	h, err := perfrecup.WarningHistogram(art, 100)
	if err != nil {
		return err
	}
	r.blocks["Fig7"] = perfrecup.RenderWarningHistogram(h, 100) + "\n" + r.corr.Render()

	// Fig. 8: the longest task of the paper's exemplar category, and the
	// longest fused read whose result moved: its summary carries the joined
	// I/O records and the movements.
	transfers, err := art.Records().Transfers()
	if err != nil {
		return err
	}
	moved := map[dask.TaskKey]bool{}
	for _, tr := range transfers {
		moved[tr.Key] = true
	}
	longest := func(prefix string, moves bool) (*perfrecup.Lineage, error) {
		for i := 0; i < pc.NRows(); i++ {
			key := dask.TaskKey(pc.Col("key").Str(i))
			if dask.KeyPrefix(key) == prefix && (!moves || moved[key]) {
				return perfrecup.BuildLineage(art, string(key))
			}
		}
		return nil, fmt.Errorf("xgboost ran no %s task", prefix)
	}
	if r.lineage, err = longest("getitem__get_categories", false); err != nil {
		return err
	}
	if r.readLineage, err = longest("read_parquet-fused-assign", true); err != nil {
		return err
	}
	r.blocks["Fig8"] = r.lineage.Render() + "\n" + r.readLineage.Render()
	return nil
}

func claimTableI(t *testing.T) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-11s %-14s %-14s %-13s %-13s %s\n",
		"Workflows", "Task graphs", "Distinct tasks", "Distinct files", "I/O operation", "Communications", "(paper)")
	for _, name := range Names() {
		want := TableI[name]
		runs := studyOf(t, name)
		opsLo, opsHi, comLo, comHi := int64(math.MaxInt64), int64(0), int64(math.MaxInt64), int64(0)
		exact, layers := true, true
		for _, r := range runs {
			exact = exact && r.graphs == want.TaskGraphs && r.tasks == want.DistinctTasks && r.files == want.DistinctFiles
			layers = layers && r.layers
			opsLo, opsHi = min(opsLo, r.ioOps), max(opsHi, r.ioOps)
			comLo, comHi = min(comLo, r.comms), max(comHi, r.comms)
		}
		r := runs[0]
		claim(t, exact, name+": task graphs, distinct tasks and distinct files are the paper's, at every seed",
			"%d/%d/%d at seed 1 (paper %d/%d/%d)", r.graphs, r.tasks, r.files, want.TaskGraphs, want.DistinctTasks, want.DistinctFiles)
		claim(t, opsLo >= want.IOOpsLow && opsHi <= want.IOOpsHigh, name+": I/O operations fall inside the paper's range",
			"%d–%d (paper %d–%d)", opsLo, opsHi, want.IOOpsLow, want.IOOpsHigh)
		claim(t, comLo >= want.CommsLow/2 && comHi <= want.CommsHigh*2, name+": communications are within 2× of the paper's range",
			"%d–%d (paper %d–%d)", comLo, comHi, want.CommsLow, want.CommsHigh)
		switch name {
		case "imageprocessing":
			claim(t, comLo > want.CommsHigh, "Known delta 3: ImageProcessing's communications run above the paper's range",
				"%d–%d, %.2f–%.2f× the paper's %d", comLo, comHi, float64(comLo)/float64(want.CommsHigh), float64(comHi)/float64(want.CommsHigh), want.CommsHigh)
		case "resnet152":
			claim(t, comHi < want.CommsLow, "Known delta 3: ResNet152's communications run below the paper's range",
				"%d–%d, %.2f–%.2f× the paper's %d", comLo, comHi, float64(comLo)/float64(want.CommsLow), float64(comHi)/float64(want.CommsLow), want.CommsLow)
		case "xgboost":
			claim(t, comLo <= want.CommsHigh && comHi >= want.CommsLow, "XGBOOST's communications overlap the paper's range",
				"%d–%d (paper %d–%d)", comLo, comHi, want.CommsLow, want.CommsHigh)
		}
		claim(t, layers, name+": Fig. 1 — metadata.json records the hardware, system/job and application layers", "at every seed")
		fmt.Fprintf(&b, "%-16s %-11d %-14d %-14d %-13s %-14s (%d–%d io, %d–%d comm), seeds 1–%d\n",
			name, r.graphs, r.tasks, r.files, fmt.Sprintf("%d–%d", opsLo, opsHi), fmt.Sprintf("%d–%d", comLo, comHi),
			want.IOOpsLow, want.IOOpsHigh, want.CommsLow, want.CommsHigh, studySeeds)
	}
	t.Logf("Table I — workflow characteristics\n%s", b.String())
}

func claimFig3(t *testing.T) {
	stats := map[string]perfrecup.PhaseStats{}
	gap := map[string]float64{}
	var all []perfrecup.PhaseStats
	for _, name := range Names() {
		var phases []perfrecup.PhaseBreakdown
		for _, r := range studyOf(t, name) {
			phases = append(phases, r.phases)
			gap[name] += (r.phases.TotalSeconds - r.phases.ComputeSeconds) / r.phases.TotalSeconds / studySeeds
		}
		stats[name] = perfrecup.AggregatePhases(phases)
		all = append(all, stats[name])
	}
	ip, rn, xgb := stats["imageprocessing"], stats["resnet152"], stats["xgboost"]
	for _, s := range []perfrecup.PhaseStats{ip, rn} {
		lo, hi := math.Inf(1), 0.0
		for _, r := range studyOf(t, s.Workflow) {
			lo, hi = min(lo, r.wall), max(hi, r.wall)
		}
		claim(t, lo >= 30 && hi <= 300, s.Workflow+"'s wall time is around one hundred seconds (30–300 s)", "%.1f–%.1f s", lo, hi)
	}
	claim(t, xgb.MeanTotal >= 5*max(ip.MeanTotal, rn.MeanTotal), "XGBOOST runs at least 5× longer than either short workflow",
		"%.1f s against %.1f s and %.1f s", xgb.MeanTotal, ip.MeanTotal, rn.MeanTotal)
	rel := func(s perfrecup.PhaseStats) float64 { return s.StdTotal / s.MeanTotal }
	claim(t, rel(xgb) > rel(ip) && rel(xgb) > rel(rn), "XGBOOST is the most variable workflow (relative std of total wall)",
		"%.1f %% against %.1f %% (ImageProcessing) and %.1f %% (ResNet152)", 100*rel(xgb), 100*rel(ip), 100*rel(rn))
	claim(t, ip.NormIO >= 10*max(rn.NormIO, xgb.NormIO), "I/O share: ImageProcessing ≫ ResNet152 and XGBOOST (≥ 10×)",
		"%.5f against %.5f and %.5f", ip.NormIO, rn.NormIO, xgb.NormIO)
	claim(t, max(rn.NormIO, xgb.NormIO) <= 3*min(rn.NormIO, xgb.NormIO), "I/O share: ResNet152 ≈ XGBOOST (within 3×)",
		"%.5f and %.5f", rn.NormIO, xgb.NormIO)
	claim(t, max(ip.NormIO, rn.NormIO, xgb.NormIO) < 0.01, "Known delta 4: every I/O share is below 1 % of the wall",
		"at most %.4f", max(ip.NormIO, rn.NormIO, xgb.NormIO))
	claim(t, gap["xgboost"] > max(gap["imageprocessing"], gap["resnet152"]),
		"Known delta 6: XGBOOST's (total−compute)/total gap exceeds the short workflows'",
		"%.1f %% against %.1f %% (ImageProcessing) and %.1f %% (ResNet152)", 100*gap["xgboost"], 100*gap["imageprocessing"], 100*gap["resnet152"])
	t.Logf("Figure 3 — relative time per phase with variability\n%s", perfrecup.RenderPhaseStats(all))
}

func claimFig4(t *testing.T) {
	for seed, r := range studyOf(t, "imageprocessing") {
		shape := len(r.ioPhases) == 3
		var bigReads, smallWrites []bool
		for _, ph := range r.ioPhases {
			shape = shape && ph.reads > 0 && ph.writes > 0 && ph.meanReadAt < ph.meanWriteAt
			bigReads, smallWrites = append(bigReads, ph.bigReads), append(smallWrites, ph.smallWrites)
		}
		claim(t, shape, fmt.Sprintf("seed %d: three read phases, each followed by a write phase", seed+1),
			"%v", r.ioPhases)
		claim(t, shape && bigReads[0] && smallWrites[1] && smallWrites[2],
			fmt.Sprintf("seed %d: large reads in phase 1, small writes in phases 2 and 3", seed+1),
			"per phase, every read ≥ 1 MiB: %v; every write < 1 MiB: %v", bigReads, smallWrites)
		claim(t, r.imageReads[0] >= 10 && r.imageReads[1] <= 25, fmt.Sprintf("seed %d: 10–25 reads of 4 MiB per image", seed+1),
			"%d–%d distinct chunks", r.imageReads[0], r.imageReads[1])
		claim(t, r.burstShare >= 0.85, fmt.Sprintf("seed %d: I/O arrives in bursts at graph boundaries (≥ 85 %% within %.0f s of one)", seed+1, burstWindow),
			"%.1f %%", 100*r.burstShare)
	}
	t.Logf("Figure 4 — per-thread I/O of ImageProcessing over time (seed 1)\n%s", studyOf(t, "imageprocessing")[0].blocks["Fig4"])
}

func claimFig5(t *testing.T) {
	for seed, r := range studyOf(t, "resnet152") {
		minRatio, lastSlow := math.Inf(1), 0.0
		small, interLo, interHi := false, 1.0, 0.0
		for i, b := range r.comm {
			switch {
			case b.LoBytes >= 256<<10:
				minRatio = min(minRatio, b.MaxSec/b.P95Sec)
				lastSlow = max(lastSlow, r.slowestAt[i]/r.wall)
			case b.LoBytes == 4<<10:
				small = b.Count > 0 && b.MaxSec <= 1.01*b.P95Sec
			}
			if b.Count >= 100 {
				share := float64(b.InterNode) / float64(b.Count)
				interLo, interHi = min(interLo, share), max(interHi, share)
			}
		}
		claim(t, minRatio >= 20, fmt.Sprintf("seed %d: max/p95 ≥ 20× in every bucket from 256 KiB up", seed+1), "at least %.1f×", minRatio)
		claim(t, lastSlow <= 0.2, fmt.Sprintf("seed %d: those buckets' slowest transfers start near the beginning (first 20 %% of the run)", seed+1),
			"by %.1f %% of the wall", 100*lastSlow)
		claim(t, small, fmt.Sprintf("seed %d: the 4–8 KiB bucket has no outlier: max within 1 %% of p95", seed+1), "%v", small)
		claim(t, interLo >= 0.5 && interHi <= 0.65, fmt.Sprintf("seed %d: communications are almost evenly split, inter-node share 0.5–0.65 in every bucket of ≥ 100", seed+1),
			"%.3f–%.3f", interLo, interHi)
	}
	t.Logf("Figure 5 — ResNet152 communication time vs size (seed 1)\n%s", studyOf(t, "resnet152")[0].blocks["Fig5"])
}

// partitionCategories are the per-partition dataframe categories the
// paper's Fig. 6 plots beside the fused reads.
var partitionCategories = []string{"getitem", "getitem__get_categories", "random_split_take", "drop_by_shallow_copy"}

func claimFig6(t *testing.T) {
	for seed, r := range studyOf(t, "xgboost") {
		read, train := r.categories["read_parquet-fused-assign"], r.categories["train-xgboost"]
		longest := ""
		for p, c := range r.categories {
			if p != "train-xgboost" && (longest == "" || c.maxDur > r.categories[longest].maxDur) {
				longest = p
			}
		}
		claim(t, longest == "read_parquet-fused-assign", fmt.Sprintf("seed %d: read_parquet-fused-assign is the longest dataframe category", seed+1),
			"%s longest at %.1f s (fused read %.1f s)", longest, r.categories[longest].maxDur, read.maxDur)
		claim(t, read.n > 0 && read.minOut > partitionMB, fmt.Sprintf("seed %d: every fused read's output exceeds 128 MB", seed+1),
			"%d tasks, %.0f–%.0f MB", read.n, float64(read.minOut)/(1<<20), float64(read.maxOut)/(1<<20))
		var biggest int64
		for _, p := range partitionCategories {
			biggest = max(biggest, r.categories[p].maxOut)
		}
		claim(t, biggest > 0 && biggest < partitionMB, fmt.Sprintf("seed %d: the per-partition categories' outputs sit below 128 MB", seed+1),
			"at most %.0f MB", float64(biggest)/(1<<20))
		claim(t, train.n == 64 && train.maxDur > read.maxDur, fmt.Sprintf("seed %d: Known delta 5: 64 pinned train-xgboost tasks sit above the dataframe categories", seed+1),
			"%d tasks, up to %.1f s", train.n, train.maxDur)
		ct := r.categories["concat-train"]
		claim(t, ct.minOut > partitionMB, fmt.Sprintf("seed %d: Known delta 5: the concat-train assemblies the paper's chart omits exceed 128 MB", seed+1),
			"%.0f MB", float64(ct.minOut)/(1<<20))
	}
	t.Logf("Figure 6 — XGBOOST parallel-coordinates task view (seed 1)\n%s", studyOf(t, "xgboost")[0].blocks["Fig6"])
}

func claimFig7(t *testing.T) {
	for seed, r := range studyOf(t, "xgboost") {
		claim(t, r.loopWarns >= 200 && r.loopWarns <= 400 && r.lastLoopAt < 500,
			fmt.Sprintf("seed %d: 200–400 unresponsive-event-loop warnings, all in the first 500 s (paper: 297)", seed+1),
			"%d, the last at %.1f s", r.loopWarns, r.lastLoopAt)
		claim(t, r.gcWarns > 0 && r.lastGCAt < r.firstTrainAt, fmt.Sprintf("seed %d: GC warnings fall in the prep phase, before training starts", seed+1),
			"%d, the last at %.1f s; training from %.1f s", r.gcWarns, r.lastGCAt, r.firstTrainAt)
		var top, prep string
		for _, p := range r.corr.LongTaskPrefixes {
			if top == "" {
				top = p.Prefix
			}
			if prep == "" && p.Prefix != "train-xgboost" {
				prep = p.Prefix
			}
		}
		claim(t, prep == "read_parquet-fused-assign", fmt.Sprintf("seed %d: Correlate puts read_parquet-fused-assign at the top of the prep categories", seed+1), "%s", prep)
		claim(t, top == "train-xgboost" && r.corr.LongTaskPrefixes[0].Share > 0.9,
			fmt.Sprintf("seed %d: Known delta 7: train-xgboost holds over 90 %% of long-task seconds", seed+1),
			"%s, %.1f %%", top, 100*r.corr.LongTaskPrefixes[0].Share)
		claim(t, r.corr.WarningsVsLongTasks < 0, fmt.Sprintf("seed %d: Known delta 7: warnings and long-task activity correlate negatively (50 s bins)", seed+1),
			"Pearson %.3f", r.corr.WarningsVsLongTasks)
	}
	t.Logf("Figure 7 — XGBOOST warning distribution (seed 1)\n%s", studyOf(t, "xgboost")[0].blocks["Fig7"])
}

func claimFig8(t *testing.T) {
	for seed, r := range studyOf(t, "xgboost") {
		l := r.lineage
		states, sides := map[string]bool{}, map[bool]bool{}
		located := len(l.States) > 0
		for _, s := range l.States {
			states[s.To] = true
			sides[s.Location == "scheduler"] = true
			located = located && s.Location != "" && s.Stimulus != ""
		}
		claim(t, l.Prefix == "getitem__get_categories" && l.Group != "" && l.GraphID > 0 && len(l.Deps) > 0,
			fmt.Sprintf("seed %d: the summary names the task's prefix, group, graph and dependencies", seed+1),
			"prefix %s, group %s, graph %d, %d deps", l.Prefix, l.Group, l.GraphID, len(l.Deps))
		claim(t, located && sides[true] && sides[false] && states["waiting"] && states["processing"] && states["memory"],
			fmt.Sprintf("seed %d: every state transition, scheduler- and worker-side, carries its stimulus, location and time", seed+1), "%d transitions", len(l.States))
		claim(t, l.Worker != "" && l.Hostname != "" && l.ThreadID != 0 && l.Stop > l.Start && l.OutputSize > 0,
			fmt.Sprintf("seed %d: the execution names worker, hostname, pthread, window and output size", seed+1),
			"%s (%s) thread %d, %.3f s, %d B", l.Worker, l.Hostname, l.ThreadID, l.Stop-l.Start, l.OutputSize)
		io := len(r.readLineage.IO) > 0
		for _, rec := range r.readLineage.IO {
			io = io && rec.Op == "read" && rec.Mount != "" && strings.HasSuffix(rec.Path, ".parquet") && rec.Bytes > 0
		}
		claim(t, io, fmt.Sprintf("seed %d: a fused read's summary carries its joined PFS read records", seed+1), "%d records", len(r.readLineage.IO))
		moves, intra := len(r.readLineage.Movements) > 0, 0
		for _, m := range r.readLineage.Movements {
			moves = moves && m.From == r.readLineage.Worker && m.To != m.From && m.Bytes == r.readLineage.OutputSize
			if m.SameNode {
				intra++
			}
		}
		claim(t, moves, fmt.Sprintf("seed %d: its result's movements between workers are listed, intra- or inter-node", seed+1),
			"%d intra, %d inter", intra, len(r.readLineage.Movements)-intra)
	}
	t.Logf("Figure 8 — task provenance summary (seed 1)\n%s", studyOf(t, "xgboost")[0].blocks["Fig8"])
}

func claimFootnote9(t *testing.T) {
	runs := studyOf(t, "resnet152")
	buffer := int64(DefaultSession("resnet152", "", 1).DXTBufferSegments)
	for seed, r := range runs {
		cover := float64(r.ioOps) / float64(r.posixOps)
		claim(t, math.Abs(cover-0.41) <= 0.02, fmt.Sprintf("seed %d: ResNet152's DXT view covers ≈41 %% of its POSIX operations", seed+1),
			"%d of %d, %.3f", r.ioOps, r.posixOps, cover)
		claim(t, r.posixOps > r.ioOps && r.dxtDropped, fmt.Sprintf("seed %d: the truncation happened: a Darshan log is flagged partial with segments dropped", seed+1),
			"partial=%v", r.dxtDropped)
		claim(t, r.ioOps == runs[0].ioOps && r.ioOps%buffer == 0,
			fmt.Sprintf("seed %d: Known delta 2: the truncated count has no spread, a whole number of %d-segment buffers", seed+1, buffer),
			"%d = %d × %d", r.ioOps, r.ioOps/buffer, buffer)
	}
}

// ablation is what the Ablations claims read from one varied run.
type ablation struct {
	comms     int64
	cover     float64 // DXT segments over POSIX operations
	wall      float64
	ioSeconds float64
}

// claimAblations runs the design ablations at seed 1: each varies one knob
// of the default session, whose own run is the study's seed 1.
func claimAblations(t *testing.T) {
	variants := []struct {
		label, workflow string
		vary            func(*core.SessionConfig)
	}{
		{"no-stealing", "imageprocessing", func(cfg *core.SessionConfig) { cfg.Dask.WorkStealing = false }},
		{"dxt-64", "resnet152", func(cfg *core.SessionConfig) { cfg.DXTBufferSegments = 64 }},
		{"dxt-4096", "resnet152", func(cfg *core.SessionConfig) { cfg.DXTBufferSegments = 4096 }},
		{"no-collection", "imageprocessing", func(cfg *core.SessionConfig) { cfg.DisableCollection = true }},
		{"pfs-0", "imageprocessing", func(cfg *core.SessionConfig) { cfg.PFS.InterferenceLoad = 0 }},
		{"pfs-0.5", "imageprocessing", func(cfg *core.SessionConfig) { cfg.PFS.InterferenceLoad = 0.5 }},
	}
	runs := make([]ablation, len(variants))
	sideBySide(t, len(variants), func(i int) error {
		v := variants[i]
		wf, err := New(v.workflow)
		if err != nil {
			return err
		}
		cfg := DefaultSession(v.workflow, "job-"+v.label, 1)
		v.vary(&cfg)
		art, err := core.Run(cfg, wf)
		if err != nil {
			return err
		}
		runs[i] = ablation{wall: art.Meta.WallSeconds}
		if cfg.DisableCollection {
			return nil
		}
		runs[i].cover = float64(art.TotalIOOps()) / float64(art.TotalPosixOps())
		if runs[i].comms, err = art.TotalCommunications(); err != nil {
			return err
		}
		ph, err := perfrecup.Phases(art)
		runs[i].ioSeconds = ph.IOSeconds
		return err
	})
	got := map[string]ablation{}
	for i, v := range variants {
		got[v.label] = runs[i]
	}
	ip, rn := studyOf(t, "imageprocessing")[0], studyOf(t, "resnet152")[0]
	defaults := DefaultSession("imageprocessing", "", 1)
	var b strings.Builder

	off := got["no-stealing"]
	claim(t, defaults.Dask.WorkStealing && float64(ip.comms) >= 1.2*float64(off.comms),
		"work stealing (on by default) buys balance with ≥ 20 % more transfers", "%d on, %d off", ip.comms, off.comms)
	fmt.Fprintf(&b, "work-stealing=on  comms=%d wall=%.1fs\nwork-stealing=off comms=%d wall=%.1fs\n", ip.comms, ip.wall, off.comms, off.wall)

	buffer := DefaultSession("resnet152", "", 1).DXTBufferSegments
	cover := map[int]float64{64: got["dxt-64"].cover, buffer: float64(rn.ioOps) / float64(rn.posixOps), 4096: got["dxt-4096"].cover}
	claim(t, math.Abs(cover[64]-0.091) <= 0.02 && cover[64] < cover[buffer] && cover[4096] == 1,
		fmt.Sprintf("DXT buffer 64 / %d / 4096 segments observes ≈9 %% / ≈41 %% / all of the operations", buffer),
		"%.3f / %.3f / %.3f", cover[64], cover[buffer], cover[4096])
	for _, segs := range []int{64, buffer, 4096} {
		fmt.Fprintf(&b, "dxt-buffer=%-5d complete=%.1f%%\n", segs, 100*cover[segs])
	}

	quiet := got["no-collection"].wall
	claim(t, math.Float64bits(quiet) == math.Float64bits(ip.wall),
		"collection off leaves the virtual wall time bit-identical", "%v s off, %v s on with %d events", quiet, ip.wall, ip.events)
	fmt.Fprintf(&b, "collection=on  wall=%vs events=%d\ncollection=off wall=%vs\n", ip.wall, ip.events, quiet)

	load := defaults.PFS.InterferenceLoad
	ioAt := map[float64]float64{0: got["pfs-0"].ioSeconds, load: ip.phases.IOSeconds, 0.5: got["pfs-0.5"].ioSeconds}
	claim(t, load > 0 && load < 0.5 && ioAt[0] < ioAt[load] && ioAt[load] < ioAt[0.5],
		fmt.Sprintf("PFS interference 0 / %.2f / 0.5 grows the I/O time monotonically", load),
		"%.3f / %.3f / %.3f s", ioAt[0], ioAt[load], ioAt[0.5])
	for _, l := range []float64{0, load, 0.5} {
		fmt.Fprintf(&b, "interference=%.2f io-time=%.3fs\n", l, ioAt[l])
	}
	t.Logf("Ablations (seed 1)\n%s", b.String())
}
