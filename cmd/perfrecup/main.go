// Command perfrecup analyzes run directories written by cmd/taskprov: it
// loads the heterogeneous artifacts (Darshan binary logs, Mofka event
// topics, metadata) into uniform views and prints the paper's tables and
// figures.
//
// Usage:
//
//	perfrecup table1   runs/xgboost-0001 [more run dirs...]
//	perfrecup phases   runs/ip-* runs/xgb-*      (Fig. 3)
//	perfrecup iotimeline runs/ip-0001            (Fig. 4)
//	perfrecup comm     runs/resnet152-0001       (Fig. 5)
//	perfrecup tasks    runs/xgboost-0001         (Fig. 6)
//	perfrecup warnings runs/xgboost-0001         (Fig. 7)
//	perfrecup lineage  runs/xgboost-0001 -key "('getitem__get_categories-...', 63)"  (Fig. 8)
//	perfrecup export   runs/xgboost-0001 -view executions > executions.csv
//	perfrecup critpath runs/xgboost-0001             (bottleneck attribution)
//	perfrecup whatif   runs/xgboost-0001 -scenario "workers=16 net=0.5"
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"taskprov/internal/core"
	"taskprov/internal/darshan"
	"taskprov/internal/perfrecup"
	"taskprov/internal/perfrecup/frame"
	"taskprov/internal/whatif"
)

func main() {
	if len(os.Args) < 3 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "table1":
		err = cmdTable1(args)
	case "phases":
		err = cmdPhases(args)
	case "iotimeline":
		err = cmdIOTimeline(args)
	case "comm":
		err = cmdComm(args)
	case "tasks":
		err = cmdTasks(args)
	case "warnings":
		err = cmdWarnings(args)
	case "lineage":
		err = cmdLineage(args)
	case "export":
		err = cmdExport(args)
	case "window":
		err = cmdWindow(args)
	case "compare":
		err = cmdCompare(args)
	case "darshan":
		err = cmdDarshan(args)
	case "svg":
		err = cmdSVG(args)
	case "correlate":
		err = cmdCorrelate(args)
	case "heatmap":
		err = cmdHeatmap(args)
	case "cluster":
		err = cmdCluster(args)
	case "proxy":
		err = cmdProxy(args)
	case "speculate":
		err = cmdSpeculate(args)
	case "metadata":
		err = cmdMetadata(args)
	case "critpath":
		err = cmdCritPath(args)
	case "whatif":
		err = cmdWhatIf(args)
	default:
		fmt.Fprintf(os.Stderr, "perfrecup: unknown command %q (valid: %s)\n", cmd, commandList)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfrecup:", err)
		os.Exit(1)
	}
}

// commandList is the one-line valid-command inventory printed on an unknown
// command (and in the usage string) — keep it in sync with main's switch.
const commandList = "table1|phases|iotimeline|comm|tasks|warnings|lineage|export|window|compare|darshan|svg|correlate|heatmap|cluster|proxy|speculate|metadata|critpath|whatif"

func usage() {
	fmt.Fprintf(os.Stderr, "usage: perfrecup <%s> <run dir...> [flags]\n", commandList)
}

func cmdTable1(dirs []string) error {
	type agg struct {
		graphs, tasks, files       int
		opsLo, opsHi, comLo, comHi int64
		runs                       int
	}
	byWorkflow := map[string]*agg{}
	var order []string
	for _, dir := range dirs {
		art, err := perfrecup.Load(dir)
		if err != nil {
			return err
		}
		name := art.Meta.Workflow
		a, ok := byWorkflow[name]
		if !ok {
			a = &agg{opsLo: 1 << 62, comLo: 1 << 62}
			byWorkflow[name] = a
			order = append(order, name)
		}
		graphs, err := art.TaskGraphs()
		if err != nil {
			return err
		}
		tasks, err := art.DistinctTasks()
		if err != nil {
			return err
		}
		comms, err := art.TotalCommunications()
		if err != nil {
			return err
		}
		ops := art.TotalIOOps()
		a.graphs, a.tasks, a.files = graphs, tasks, art.DistinctFiles()
		if ops < a.opsLo {
			a.opsLo = ops
		}
		if ops > a.opsHi {
			a.opsHi = ops
		}
		if comms < a.comLo {
			a.comLo = comms
		}
		if comms > a.comHi {
			a.comHi = comms
		}
		a.runs++
	}
	fmt.Println("Workflows        Task graphs  Distinct tasks  Distinct files  I/O operation  Communications  (runs)")
	for _, name := range order {
		a := byWorkflow[name]
		fmt.Printf("%-16s %-12d %-15d %-15d %d-%-10d %d-%-10d %d\n",
			name, a.graphs, a.tasks, a.files, a.opsLo, a.opsHi, a.comLo, a.comHi, a.runs)
	}
	return nil
}

func cmdPhases(dirs []string) error {
	byWorkflow := map[string][]perfrecup.PhaseBreakdown{}
	var order []string
	for _, dir := range dirs {
		art, err := perfrecup.Load(dir)
		if err != nil {
			return err
		}
		b, err := perfrecup.Phases(art)
		if err != nil {
			return err
		}
		if _, ok := byWorkflow[b.Workflow]; !ok {
			order = append(order, b.Workflow)
		}
		byWorkflow[b.Workflow] = append(byWorkflow[b.Workflow], b)
	}
	sort.Strings(order)
	var stats []perfrecup.PhaseStats
	for _, name := range order {
		stats = append(stats, perfrecup.AggregatePhases(byWorkflow[name]))
	}
	fmt.Print(perfrecup.RenderPhaseStats(stats))
	return nil
}

func cmdIOTimeline(args []string) error {
	fs := flag.NewFlagSet("iotimeline", flag.ExitOnError)
	bins := fs.Int("bins", 120, "time bins")
	small := fs.Int64("small", 1<<20, "bytes below which accesses render lowercase")
	dir := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	art, err := perfrecup.Load(dir)
	if err != nil {
		return err
	}
	out, err := perfrecup.IOTimeline(art, *bins, *small)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func cmdComm(args []string) error {
	art, err := perfrecup.Load(args[0])
	if err != nil {
		return err
	}
	buckets, err := perfrecup.CommScatter(art)
	if err != nil {
		return err
	}
	fmt.Print(perfrecup.RenderCommScatter(buckets))
	return nil
}

func cmdTasks(args []string) error {
	fs := flag.NewFlagSet("tasks", flag.ExitOnError)
	top := fs.Int("top", 15, "longest tasks to list")
	dir := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	art, err := perfrecup.Load(dir)
	if err != nil {
		return err
	}
	pc, err := perfrecup.ParallelCoords(art)
	if err != nil {
		return err
	}
	fmt.Print(perfrecup.RenderParallelCoords(pc, *top))
	return nil
}

func cmdWarnings(args []string) error {
	fs := flag.NewFlagSet("warnings", flag.ExitOnError)
	bin := fs.Float64("bin", 100, "histogram bin width in seconds")
	dir := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	art, err := perfrecup.Load(dir)
	if err != nil {
		return err
	}
	h, err := perfrecup.WarningHistogram(art, *bin)
	if err != nil {
		return err
	}
	fmt.Print(perfrecup.RenderWarningHistogram(h, *bin))
	return nil
}

func cmdLineage(args []string) error {
	fs := flag.NewFlagSet("lineage", flag.ExitOnError)
	key := fs.String("key", "", "task key (exact)")
	prefix := fs.String("prefix", "", "pick the longest task with this prefix")
	dir := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	art, err := perfrecup.Load(dir)
	if err != nil {
		return err
	}
	k := *key
	if k == "" && *prefix != "" {
		pc, err := perfrecup.ParallelCoords(art)
		if err != nil {
			return err
		}
		for i := 0; i < pc.NRows(); i++ {
			if pc.Col("prefix").Str(i) == *prefix {
				k = pc.Col("key").Str(i)
				break
			}
		}
	}
	if k == "" {
		return fmt.Errorf("need -key or -prefix")
	}
	l, err := perfrecup.BuildLineage(art, k)
	if err != nil {
		return err
	}
	fmt.Print(l.Render())
	return nil
}

// exportViews maps -view names to their builders; exportViewNames keeps the
// presentation order for the flag help and the unknown-view error.
var exportViews = map[string]func(*core.RunArtifacts) (*frame.Frame, error){
	"executions":  perfrecup.ExecutionsView,
	"transitions": perfrecup.TransitionsView,
	"transfers":   perfrecup.TransfersView,
	"warnings":    perfrecup.WarningsView,
	"dxt":         perfrecup.DXTView,
	"posix":       perfrecup.PosixView,
	"taskmeta":    perfrecup.TaskMetaView,
	"heartbeats":  perfrecup.HeartbeatsView,
	"taskio":      perfrecup.TaskIOSummary,
	"proxy":       perfrecup.ProxyView,
	"critpath":    perfrecup.CritPathView,
	"speculation": perfrecup.SpeculationTimelineView,
}

var exportViewNames = []string{
	"executions", "transitions", "transfers", "warnings", "dxt", "posix",
	"taskmeta", "heartbeats", "taskio", "proxy", "critpath", "speculation",
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	view := fs.String("view", "executions", strings.Join(exportViewNames, "|"))
	dir := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	build, ok := exportViews[*view]
	if !ok {
		return fmt.Errorf("unknown view %q (valid: %s)", *view, strings.Join(exportViewNames, "|"))
	}
	art, err := perfrecup.Load(dir)
	if err != nil {
		return err
	}
	f, err := build(art)
	if err != nil {
		return err
	}
	return f.WriteCSV(os.Stdout)
}

// cmdWindow zooms into a time period of one run (§IV-D "zooming through a
// specific time period").
func cmdWindow(args []string) error {
	fs := flag.NewFlagSet("window", flag.ExitOnError)
	from := fs.Float64("from", 0, "window start (seconds)")
	to := fs.Float64("to", 0, "window end (seconds; 0 = end of run)")
	dir := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	art, err := perfrecup.Load(dir)
	if err != nil {
		return err
	}
	end := *to
	if end <= 0 {
		end = art.Meta.WallSeconds
	}
	w, err := perfrecup.Window(art, *from, end)
	if err != nil {
		return err
	}
	fmt.Print(w.Render())
	return nil
}

// cmdCompare contrasts the scheduling of two runs (§IV-D "whether tasks
// were scheduled in the same order or not").
func cmdCompare(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("compare needs two run directories")
	}
	a, err := perfrecup.Load(args[0])
	if err != nil {
		return err
	}
	b, err := perfrecup.Load(args[1])
	if err != nil {
		return err
	}
	cmp, err := perfrecup.CompareSchedules(a, b)
	if err != nil {
		return err
	}
	fmt.Print(cmp.Render())
	return nil
}

// cmdDarshan prints the darshan-parser-style job summary of a run's logs.
func cmdDarshan(args []string) error {
	fs := flag.NewFlagSet("darshan", flag.ExitOnError)
	top := fs.Int("top", 10, "files to list")
	dir := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	art, err := perfrecup.Load(dir)
	if err != nil {
		return err
	}
	fmt.Print(darshan.Summarize(art.DarshanLogs, *top).Render())
	return nil
}

// cmdSVG writes a figure as an SVG file.
func cmdSVG(args []string) error {
	fs := flag.NewFlagSet("svg", flag.ExitOnError)
	fig := fs.String("figure", "iotimeline", "iotimeline|comm|warnings|phases|critpath")
	out := fs.String("o", "figure.svg", "output file")
	bin := fs.Float64("bin", 100, "warning histogram bin (seconds)")
	dir := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	art, err := perfrecup.Load(dir)
	if err != nil {
		return err
	}
	var svg string
	switch *fig {
	case "iotimeline":
		svg, err = perfrecup.IOTimelineSVG(art)
	case "comm":
		svg, err = perfrecup.CommScatterSVG(art)
	case "warnings":
		h, herr := perfrecup.WarningHistogram(art, *bin)
		if herr != nil {
			return herr
		}
		svg = perfrecup.WarningHistogramSVG(h, *bin)
	case "phases":
		b, perr := perfrecup.Phases(art)
		if perr != nil {
			return perr
		}
		svg = perfrecup.PhaseBarsSVG([]perfrecup.PhaseStats{perfrecup.AggregatePhases([]perfrecup.PhaseBreakdown{b})})
	case "critpath":
		svg, err = perfrecup.CritPathSVG(art)
	default:
		return fmt.Errorf("unknown figure %q (valid: iotimeline|comm|warnings|phases|critpath)", *fig)
	}
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, len(svg))
	return nil
}

// cmdCorrelate prints the warning/long-task and duration/size correlations.
func cmdCorrelate(args []string) error {
	fs := flag.NewFlagSet("correlate", flag.ExitOnError)
	bin := fs.Float64("bin", 50, "time bin width (seconds)")
	dir := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	art, err := perfrecup.Load(dir)
	if err != nil {
		return err
	}
	rep, err := perfrecup.Correlate(art, *bin)
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	return nil
}

// cmdHeatmap prints the merged Darshan HEATMAP module across workers.
func cmdHeatmap(args []string) error {
	art, err := perfrecup.Load(args[0])
	if err != nil {
		return err
	}
	var hs []*darshan.Heatmap
	for _, l := range art.DarshanLogs {
		hs = append(hs, l.Heatmap)
	}
	merged := darshan.MergeHeatmaps(hs)
	if merged == nil {
		return fmt.Errorf("no heatmap data in %s", args[0])
	}
	fmt.Print(merged.Render())
	return nil
}

// cmdCluster prints the Mofka cluster-health lane: the replication and
// failover timeline a sharded run recorded on its warnings topic.
func cmdCluster(args []string) error {
	art, err := perfrecup.Load(args[0])
	if err != nil {
		return err
	}
	f, err := perfrecup.ClusterTimelineView(art)
	if err != nil {
		return err
	}
	tl := perfrecup.RenderClusterTimeline(f)
	if tl == "" {
		fmt.Println("no cluster events (single-broker run)")
		return nil
	}
	fmt.Printf("cluster timeline (%d events):\n%s", f.NRows(), tl)
	return nil
}

// cmdProxy prints the pass-by-reference data-plane lane: per-operation
// counts, blob bytes, the store's resident footprint over time, and the
// demand-to-arrival resolution latency distribution.
func cmdProxy(args []string) error {
	art, err := perfrecup.Load(args[0])
	if err != nil {
		return err
	}
	f, err := perfrecup.ProxyView(art)
	if err != nil {
		return err
	}
	if f.NRows() == 0 {
		fmt.Println("no proxy-store events (direct transfers only)")
		return nil
	}
	type opAgg struct {
		n     int64
		bytes int64
	}
	ops := map[string]*opAgg{}
	var order []string
	var peak, final int64
	var resolves []float64
	opCol := f.Col("op")
	bytesCol := f.Col("bytes")
	residentCol := f.Col("resident")
	resolveCol := f.Col("resolve_latency")
	for i := 0; i < f.NRows(); i++ {
		op := opCol.Str(i)
		a, ok := ops[op]
		if !ok {
			a = &opAgg{}
			ops[op] = a
			order = append(order, op)
		}
		a.n++
		a.bytes += bytesCol.Int(i)
		if r := residentCol.Int(i); r > peak {
			peak = r
		}
		// The drain concatenates partitions and events can share a virtual
		// timestamp, so the final footprint comes from the commutative delta
		// sum rather than any single event's snapshot.
		switch op {
		case "publish":
			final += bytesCol.Int(i)
		case "free", "reclaim":
			final -= bytesCol.Int(i)
		}
		if op == "resolve" {
			resolves = append(resolves, resolveCol.Float(i))
		}
	}
	sort.Strings(order)
	fmt.Printf("proxy store lane (%d events):\n", f.NRows())
	fmt.Println("op        n       bytes")
	for _, op := range order {
		a := ops[op]
		fmt.Printf("%-9s %-7d %d\n", op, a.n, a.bytes)
	}
	fmt.Printf("resident: peak %d B, final %d B\n", peak, final)
	if len(resolves) > 0 {
		fmt.Printf("resolve latency: mean %.5fs p95 %.5fs max %.5fs (%d resolves)\n",
			perfrecup.Mean(resolves), perfrecup.Percentile(resolves, 95),
			maxFloat(resolves), len(resolves))
	}
	return nil
}

// cmdSpeculate prints the gray-failure tolerance lane: duplicate launches,
// first-completion winners, cancelled losers with their wasted runtime,
// promotions, RPC retries, and retry-budget denials.
func cmdSpeculate(args []string) error {
	art, err := perfrecup.Load(args[0])
	if err != nil {
		return err
	}
	f, err := perfrecup.SpeculationTimelineView(art)
	if err != nil {
		return err
	}
	tl := perfrecup.RenderSpeculationTimeline(f)
	if tl == "" {
		fmt.Println("no speculation events (hedging off and no retries)")
		return nil
	}
	fmt.Printf("speculation timeline (%d events):\n%s", f.NRows(), tl)
	return nil
}

func maxFloat(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// cmdCritPath prints the run's critical path: makespan attribution by
// category, the heaviest chain steps, and the full chain.
func cmdCritPath(args []string) error {
	art, err := perfrecup.Load(args[0])
	if err != nil {
		return err
	}
	out, err := perfrecup.RenderCritPath(art)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

// cmdWhatIf replays the run's calibrated model under perturbed scenarios
// and prints the predicted makespan deltas. -scenario may repeat.
func cmdWhatIf(args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ContinueOnError)
	var scenarios scenarioFlags
	fs.Var(&scenarios, "scenario", `scenario spec, repeatable (e.g. "workers=8 net=0.5", "proxy=off", "baseline")`)
	dir := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if len(scenarios) == 0 {
		scenarios = scenarioFlags{whatif.Scenario{}}
	}
	art, err := perfrecup.Load(dir)
	if err != nil {
		return err
	}
	model, err := art.ExtractModel()
	if err != nil {
		return err
	}
	var results []*whatif.Result
	for _, s := range scenarios {
		r, err := model.Replay(s)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	fmt.Print(perfrecup.RenderWhatIf(model, results))
	return nil
}

// scenarioFlags collects repeated -scenario values.
type scenarioFlags []whatif.Scenario

func (f *scenarioFlags) String() string {
	parts := make([]string, len(*f))
	for i, s := range *f {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}

func (f *scenarioFlags) Set(v string) error {
	s, err := whatif.ParseScenario(v)
	if err != nil {
		return err
	}
	*f = append(*f, s)
	return nil
}

// cmdMetadata prints the run's layered provenance chart (Fig. 1).
func cmdMetadata(args []string) error {
	art, err := perfrecup.Load(args[0])
	if err != nil {
		return err
	}
	fmt.Print(art.Meta.RenderChart())
	return nil
}
