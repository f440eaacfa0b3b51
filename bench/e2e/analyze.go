package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"taskprov/internal/core"
	"taskprov/internal/live"
	"taskprov/internal/mofka"
	"taskprov/internal/perfrecup"
	"taskprov/internal/perfrecup/frame"
	"taskprov/internal/provenance"
	"taskprov/internal/resume"
	"taskprov/internal/whatif"
)

// analyze: the read side of the on-disk format. Set-up produces three data
// dirs; the cycle loads them and runs every post-mortem analysis, with no
// simulation in the timed region.
type analyze struct {
	// dirA is a standalone WAL dir (xgboost), dirB a 3-broker RF2 cluster
	// dir (imageprocessing), dirC a standalone dir whose coordinator chaos
	// killed at 30 s of virtual time (imageprocessing).
	dirA, dirB, dirC string
	workflowA        string
	// execCSV is the ExecutionsView of A's producing session, from its live
	// artifacts: the loaded dir must give the same bytes.
	execCSV []byte
	// producedA and producedB are what the producing sessions counted.
	producedA, producedB sessionStats
	eventsC              int64
	diskBytes            int64
	// replayError and joinCoverage are the last cycle's exact ratios,
	// reported as per-layer metrics.
	replayError, joinCoverage float64
}

func (l *analyze) counts() (int, int) { return 1, 3 }

func (l *analyze) setup(h *harness) error {
	l.workflowA = "xgboost"
	if h.cfg.smoke {
		l.workflowA = "imageprocessing"
	}
	specs := []sessionSpec{
		{label: "produce_a", workflow: l.workflowA, configure: walDir, inspect: func(art *core.RunArtifacts) error {
			f, err := perfrecup.ExecutionsView(art)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			err = f.WriteCSV(&buf)
			l.execCSV = buf.Bytes()
			return err
		}},
		{label: "produce_b", workflow: "imageprocessing", configure: clusterRF2, skipTopics: []string{provenance.TopicWarnings}},
		{label: "produce_c", workflow: "imageprocessing", configure: func(cfg *core.SessionConfig, dir string) {
			walDir(cfg, dir)
			cfg.ChaosSpec = "scheduler at=30s"
		}, wantCrash: true},
	}
	cs, stats := h.runSessions(specs, true)
	if len(cs.dirs) != 3 {
		return fmt.Errorf("analyze: produced %d of 3 data dirs", len(cs.dirs))
	}
	h.checkReference(specs[:2], stats[:2])
	l.dirA, l.dirB, l.dirC = cs.dirs[0], cs.dirs[1], cs.dirs[2]
	l.producedA, l.producedB = stats[0], stats[1]

	// C's producer died with batches unflushed, so only the log knows how
	// many events survived.
	b, err := mofka.OpenPostMortem(l.dirC)
	if err != nil {
		return fmt.Errorf("analyze: open C: %w", err)
	}
	l.eventsC = brokerEvents(b)
	if err := b.Close(); err != nil {
		return err
	}
	for _, d := range cs.dirs {
		l.diskBytes += dirBytes(d)
	}
	return nil
}

func brokerEvents(b *mofka.Broker) int64 {
	var n int64
	for _, name := range b.Topics() {
		if t, err := b.OpenTopic(name); err == nil {
			n += int64(t.Events())
		}
	}
	return n
}

// loadedStats reads the checked numbers back from a loaded dir.
func loadedStats(art *core.RunArtifacts) sessionStats {
	st := sessionStats{Makespan: art.Meta.WallSeconds, DXTOps: art.TotalIOOps(), Events: make(map[string]int64)}
	for _, name := range provenance.AllTopics() {
		if t, err := art.Broker.OpenTopic(name); err == nil {
			st.Events[name] = int64(t.Events())
		}
	}
	st.Tasks = st.Events[provenance.TopicTaskMeta]
	return st
}

// digester folds each analysis result into a short fingerprint the cycles of
// a run must agree on.
type digester struct{ parts []string }

func (d *digester) add(step string, v any) {
	var s string
	switch x := v.(type) {
	case *frame.Frame:
		s = fmt.Sprintf("%dx%d", x.NRows(), x.NCols())
	default:
		s = fmt.Sprintf("%v", x)
	}
	hsh := fnv.New64a()
	hsh.Write([]byte(s))
	d.parts = append(d.parts, fmt.Sprintf("%s=%016x", step, hsh.Sum64()))
}

// frameView adapts the views that return a frame.
func frameView(f func(*core.RunArtifacts) (*frame.Frame, error)) func(*core.RunArtifacts) (any, error) {
	return func(art *core.RunArtifacts) (any, error) { return f(art) }
}

type analysis struct {
	span string
	run  func(art *core.RunArtifacts) (any, error)
	// cut starts a new calibrated segment before this analysis; the cuts
	// split the cycle into stretches of about a second.
	cut bool
}

// viewsA is every view in loaders.go, figures.go, fuse.go and correlate.go,
// then the critical-path report.
var viewsA = []analysis{
	{span: "perfrecup.view.executions", run: frameView(perfrecup.ExecutionsView)},
	{span: "perfrecup.view.transitions", run: frameView(perfrecup.TransitionsView)},
	{span: "perfrecup.view.transfers", run: frameView(perfrecup.TransfersView), cut: true},
	{span: "perfrecup.view.taskmeta", run: frameView(perfrecup.TaskMetaView)},
	{span: "perfrecup.view.dxt", run: frameView(perfrecup.DXTView)},
	{span: "perfrecup.view.posix", run: frameView(perfrecup.PosixView)},
	{span: "perfrecup.view.warnings", run: frameView(perfrecup.WarningsView)},
	{span: "perfrecup.view.heartbeats", run: frameView(perfrecup.HeartbeatsView)},
	{span: "perfrecup.view.utilization", run: frameView(perfrecup.WorkerUtilizationView)},
	{span: "perfrecup.view.phases", run: func(art *core.RunArtifacts) (any, error) { return perfrecup.Phases(art) }},
	{span: "perfrecup.view.iotimeline", cut: true,
		run: func(art *core.RunArtifacts) (any, error) { return perfrecup.IOTimeline(art, 110, 1<<20) }},
	{span: "perfrecup.view.commscatter", run: func(art *core.RunArtifacts) (any, error) { return perfrecup.CommScatter(art) }},
	{span: "perfrecup.view.parallelcoords", run: frameView(perfrecup.ParallelCoords)},
	{span: "perfrecup.view.warninghist", run: func(art *core.RunArtifacts) (any, error) { return perfrecup.WarningHistogram(art, 10) }},
	{span: "perfrecup.view.attribute_io", run: frameView(perfrecup.AttributeIOToTasks)},
	{span: "perfrecup.view.taskio", run: frameView(perfrecup.TaskIOSummary)},
	{span: "perfrecup.view.correlate", run: func(art *core.RunArtifacts) (any, error) { return perfrecup.Correlate(art, 10) }},
	{span: "perfrecup.view.critpath", run: func(art *core.RunArtifacts) (any, error) { return perfrecup.RenderCritPath(art) }},
}

// viewsB is the I/O side, over the cluster dir.
var viewsB = []analysis{
	{span: "perfrecup.view.dxt", run: frameView(perfrecup.DXTView)},
	{span: "perfrecup.view.posix", run: frameView(perfrecup.PosixView)},
	{span: "perfrecup.view.attribute_io", run: frameView(perfrecup.AttributeIOToTasks)},
	{span: "perfrecup.view.taskio", run: frameView(perfrecup.TaskIOSummary)},
	{span: "perfrecup.view.phases", run: func(art *core.RunArtifacts) (any, error) { return perfrecup.Phases(art) }},
	{span: "perfrecup.view.iotimeline", run: func(art *core.RunArtifacts) (any, error) { return perfrecup.IOTimeline(art, 110, 1<<20) }},
}

// joinCoverage is the share of DXT segments the (host, pthread, time) join
// attributed to a task: the paper's central fusion, as an exact ratio.
func joinCoverage(attributed *frame.Frame) float64 {
	n := attributed.NRows()
	if n == 0 {
		return 0
	}
	keys := attributed.Col("key")
	hit := 0
	for i := 0; i < n; i++ {
		if keys.Str(i) != "" {
			hit++
		}
	}
	return float64(hit) / float64(n)
}

func (l *analyze) cycle(h *harness) cycleStats {
	var d digester
	cs := cycleStats{diskBytes: l.diskBytes}

	// loadAndView loads one dir and runs its views; it returns the loaded
	// artifacts and the join coverage the attribute_io view saw.
	loadAndView := func(loadSpan, dir string, views []analysis) (*core.RunArtifacts, float64) {
		var art *core.RunArtifacts
		h.op(loadSpan, func() (err error) { art, err = perfrecup.LoadEventLog(dir); return })
		if art == nil {
			return nil, 0
		}
		coverage := 0.0
		for _, v := range views {
			v := v
			if v.cut {
				h.mark()
			}
			h.op(v.span, func() error {
				out, err := v.run(art)
				if err != nil {
					return err
				}
				d.add(v.span, out)
				if v.span == "perfrecup.view.attribute_io" {
					coverage = joinCoverage(out.(*frame.Frame))
				}
				if v.span == "perfrecup.view.executions" && h.checking && dir == l.dirA {
					var buf bytes.Buffer
					if err := out.(*frame.Frame).WriteCSV(&buf); err != nil {
						return err
					}
					if !bytes.Equal(buf.Bytes(), l.execCSV) {
						return fmt.Errorf("ExecutionsView of the loaded dir differs from the producing session's (%d vs %d bytes)", buf.Len(), len(l.execCSV))
					}
				}
				return nil
			})
		}
		return art, coverage
	}

	artA, covA := loadAndView("perfrecup.load_wal", l.dirA, viewsA)
	if artA != nil {
		var model *whatif.Model
		h.op("whatif.extract", func() (err error) { model, err = artA.ExtractModel(); return })
		if model != nil {
			h.op("whatif.critpath", func() error {
				// Nine digits: CriticalSeconds sums floats in map order, so
				// its last bits differ from call to call (README, "Findings").
				d.add("critpath", fmt.Sprintf("%.9g", model.CriticalPath().CriticalSeconds()))
				return nil
			})
			h.op("whatif.slack", func() error { d.add("slack", len(model.Slack())); return nil })
			h.op("whatif.replay", func() error {
				res, err := model.Replay(whatif.Scenario{})
				if err != nil {
					return err
				}
				d.add("replay", res.PredictedMakespanSeconds)
				l.replayError = math.Abs(res.DeltaFraction)
				if l.replayError > 0.10 {
					return fmt.Errorf("self-replay predicts %.3fs for a measured %.3fs: outside the ±10%% gate",
						res.PredictedMakespanSeconds, res.MeasuredMakespanSeconds)
				}
				return nil
			})
		}
		h.mark()
		// ReplayDataDir is called on the standalone dir only: on a cluster
		// dir it finds no topics at the root and returns an empty summary
		// (see README, "Findings").
		h.op("live.replay_datadir", func() error {
			sum, err := live.ReplayDataDir(l.dirA, live.AggregatorOptions{})
			if err != nil {
				return err
			}
			if sum.Tasks == 0 {
				return fmt.Errorf("live replay of %s saw no tasks", l.dirA)
			}
			d.add("live", fmt.Sprint(sum.Events, sum.Tasks, sum.Transfers, sum.IOOps))
			return nil
		})
	}

	h.mark()
	artB, covB := loadAndView("perfrecup.load_cluster", l.dirB, viewsB)

	h.op("resume.reconstruct", func() error {
		st, err := resume.Reconstruct(l.dirC)
		if err != nil {
			return err
		}
		d.add("resume", fmt.Sprint(st.Attempt, len(st.Memos), len(st.DoneGraphs), len(st.FileEffects)))
		return nil
	})

	l.joinCoverage = covB
	if artA != nil && artB != nil {
		readA, readB := loadedStats(artA), loadedStats(artB)
		cs.events = readA.totalEvents() + readB.totalEvents() + l.eventsC
		cs.makespan = readA.Makespan + readB.Makespan
		d.add("A", readA.digest())
		d.add("B", readB.digest())
		if h.checking {
			l.checkLoaded(h, "A", l.workflowA, readA, l.producedA, nil, covA)
			l.checkLoaded(h, "B", "imageprocessing", readB, l.producedB, []string{provenance.TopicWarnings}, covB)
		}
	}
	cs.digest = strings.Join(d.parts, " ")
	return cs
}

// checkLoaded compares what was read back from a dir with what its producing
// session counted, and the join coverage with the pinned reference.
func (l *analyze) checkLoaded(h *harness, name, wf string, read, produced sessionStats, skipTopics []string, coverage float64) {
	if diff := diffStats(read, produced, skipTopics); diff != "" {
		h.fail("analyze: dir %s read back differs from what its session produced: %s", name, diff)
	}
	if ref, ok := h.ref.entry(h.cfg.seed, wf); ok && ref.JoinCoverage != coverage {
		h.fail("analyze: join coverage of %s (%s) is %v, reference %v", name, wf, coverage, ref.JoinCoverage)
	}
}
