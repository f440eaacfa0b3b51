package perfrecup

import (
	"fmt"
	"sort"
	"strings"

	"taskprov/internal/core"
	"taskprov/internal/perfrecup/frame"
	"taskprov/internal/whatif"
)

// The critical-path and what-if views sit on internal/whatif's calibrated
// model: perfrecup extracts the model from a run's artifacts (live broker,
// WAL replay, or post-mortem load — the extractor is load-path agnostic) and
// renders the chain, the bottleneck attribution, and scenario predictions.
// Every renderer here is deterministic: identical artifacts produce
// byte-identical output regardless of which loader produced them.

// CritPathView tabulates the whole-run critical path: one row per chain
// step in time order, with the step's execution decomposition, the waits
// that preceded it, what released it, and its structural slack.
func CritPathView(art *core.RunArtifacts) (*frame.Frame, error) {
	model, err := art.ExtractModel()
	if err != nil {
		return nil, err
	}
	cp := model.CriticalPath()
	slack := model.Slack()
	n := len(cp.Tasks)
	step := make([]int64, n)
	key := make([]string, n)
	prefix := make([]string, n)
	worker := make([]string, n)
	reason := make([]string, n)
	start := make([]float64, n)
	stop := make([]float64, n)
	compute := make([]float64, n)
	ioSec := make([]float64, n)
	proxy := make([]float64, n)
	waitXfer := make([]float64, n)
	waitSched := make([]float64, n)
	slk := make([]float64, n)
	for i, t := range cp.Tasks {
		step[i] = int64(i + 1)
		key[i] = t.Key
		prefix[i] = t.Prefix
		worker[i] = t.Worker
		reason[i] = t.Reason
		start[i] = t.Start
		stop[i] = t.Stop
		compute[i] = t.ComputeSeconds
		ioSec[i] = t.IOSeconds
		proxy[i] = t.ProxySeconds
		waitXfer[i] = t.WaitTransferSeconds
		waitSched[i] = t.WaitSchedulerSeconds
		slk[i] = slack[t.Key]
	}
	return frame.New(
		frame.Ints("step", step...),
		frame.Strings("key", key...),
		frame.Strings("prefix", prefix...),
		frame.Strings("worker", worker...),
		frame.Strings("reason", reason...),
		frame.Floats("start", start...),
		frame.Floats("stop", stop...),
		frame.Floats("compute", compute...),
		frame.Floats("io", ioSec...),
		frame.Floats("proxy", proxy...),
		frame.Floats("wait_transfer", waitXfer...),
		frame.Floats("wait_scheduler", waitSched...),
		frame.Floats("slack", slk...),
	)
}

// RenderCritPath renders the critical path as text: the attribution table
// (which must cover >= 95% of the makespan on a consistent stream — it is
// 100% by construction), the top bottleneck steps, and the chain itself.
func RenderCritPath(art *core.RunArtifacts) (string, error) {
	model, err := art.ExtractModel()
	if err != nil {
		return "", err
	}
	cp := model.CriticalPath()
	var b strings.Builder
	fmt.Fprintf(&b, "critical path — %s (seed %d): makespan %.3fs, %d chain steps, coverage %.1f%%\n",
		model.Workflow, model.Seed, cp.MakespanSeconds, len(cp.Tasks), 100*cp.Coverage)

	fmt.Fprintf(&b, "attribution:\n")
	for _, cat := range whatif.Categories() {
		v := cp.Categories[cat]
		pct := 0.0
		if cp.MakespanSeconds > 0 {
			pct = 100 * v / cp.MakespanSeconds
		}
		fmt.Fprintf(&b, "  %-10s %12.3fs %6.1f%%\n", cat, v, pct)
	}

	// Top bottleneck steps: the chain entries that contributed the most
	// wall-clock (execution plus preceding waits), largest first.
	type weighted struct {
		i int
		w float64
	}
	ws := make([]weighted, len(cp.Tasks))
	for i, t := range cp.Tasks {
		ws[i] = weighted{i, t.ComputeSeconds + t.IOSeconds + t.ProxySeconds +
			t.WaitTransferSeconds + t.WaitSchedulerSeconds}
	}
	sort.SliceStable(ws, func(a, b int) bool { return ws[a].w > ws[b].w })
	top := 5
	if top > len(ws) {
		top = len(ws)
	}
	if top > 0 {
		fmt.Fprintf(&b, "top steps:\n")
		for _, w := range ws[:top] {
			t := cp.Tasks[w.i]
			fmt.Fprintf(&b, "  %8.3fs  %-9s %s @ %s\n", w.w, t.Reason, t.Key, t.Worker)
		}
	}

	fmt.Fprintf(&b, "chain (time order):\n")
	fmt.Fprintf(&b, "step  reason   start        stop          sched      xfer   compute        io     proxy  key @ worker\n")
	for i, t := range cp.Tasks {
		fmt.Fprintf(&b, "%4d  %-7s %9.3f %11.3f %11.3f %9.3f %9.3f %9.3f %9.3f  %s @ %s\n",
			i+1, t.Reason, t.Start, t.Stop,
			t.WaitSchedulerSeconds, t.WaitTransferSeconds,
			t.ComputeSeconds, t.IOSeconds, t.ProxySeconds, t.Key, t.Worker)
	}
	return b.String(), nil
}

// RenderWhatIf renders replay predictions for a list of scenarios, one row
// each, against the measured baseline.
func RenderWhatIf(model *whatif.Model, results []*whatif.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "what-if replay — %s (seed %d): measured makespan %.3fs, %d tasks\n",
		model.Workflow, model.Seed, model.MakespanSeconds, len(model.Tasks))
	fmt.Fprintf(&b, "%-44s %-9s %12s %9s %8s %8s\n",
		"scenario", "mode", "predicted", "delta", "util", "workers")
	for _, r := range results {
		fmt.Fprintf(&b, "%-44s %-9s %11.3fs %+8.1f%% %7.1f%% %5dx%d\n",
			r.Scenario, r.Mode, r.PredictedMakespanSeconds,
			100*r.DeltaFraction, 100*r.PredictedUtilization, r.Workers, r.Threads)
	}
	return b.String()
}

// CritPathSVG renders the task timeline (one band per worker thread) with
// the critical path overlaid: non-critical tasks in gray, chain tasks
// colored, and connector lines tracing the chain across lanes.
func CritPathSVG(art *core.RunArtifacts) (string, error) {
	model, err := art.ExtractModel()
	if err != nil {
		return "", err
	}
	cp := model.CriticalPath()

	const W, rowH, mL, mT = 900.0, 14.0, 150.0, 60.0
	// Lanes: (worker, thread) sorted by worker then thread.
	type laneID struct {
		worker string
		tid    uint64
	}
	laneRow := map[laneID]int{}
	var laneOrder []laneID
	for i := range model.Tasks {
		t := &model.Tasks[i]
		id := laneID{t.Worker, t.ThreadID}
		if _, ok := laneRow[id]; !ok {
			laneRow[id] = 0
			laneOrder = append(laneOrder, id)
		}
	}
	sort.Slice(laneOrder, func(a, b int) bool {
		if laneOrder[a].worker != laneOrder[b].worker {
			return laneOrder[a].worker < laneOrder[b].worker
		}
		return laneOrder[a].tid < laneOrder[b].tid
	})
	for i, id := range laneOrder {
		laneRow[id] = i
	}

	H := mT + rowH*float64(len(laneOrder)) + 40
	c := newCanvas(W, H)
	c.text(mL, 24, 16, fmt.Sprintf("Task timeline with critical path — %s", model.Workflow))
	c.text(mL, 42, 11, fmt.Sprintf("makespan %.1fs, %d chain steps, dominant: %s",
		cp.MakespanSeconds, len(cp.Tasks), cp.Dominant()))

	span := model.EndSeconds - model.StartSeconds
	if span <= 0 {
		span = 1e-9
	}
	plotW := W - mL - 20
	x := func(t float64) float64 { return mL + (t-model.StartSeconds)/span*plotW }

	onChain := make(map[string]int, len(cp.Tasks))
	for i, t := range cp.Tasks {
		onChain[t.Key] = i
	}

	// Non-critical tasks first (gray), then the chain on top (red) with its
	// connectors, so the path reads as one line through the schedule.
	rowOf := func(t *whatif.Task) float64 {
		return mT + float64(laneRow[laneID{t.Worker, t.ThreadID}])*rowH
	}
	for i := range model.Tasks {
		t := &model.Tasks[i]
		if _, ok := onChain[t.Key]; ok {
			continue
		}
		x0, x1 := x(t.Start), x(t.Stop)
		if x1-x0 < 1 {
			x1 = x0 + 1
		}
		c.rect(x0, rowOf(t)+2, x1-x0, rowH-4, "#bbbbbb", 0.6)
	}
	var px, py float64
	for i, ct := range cp.Tasks {
		ti, ok := model.Index[ct.Key]
		if !ok {
			continue
		}
		t := &model.Tasks[ti]
		x0, x1 := x(t.Start), x(t.Stop)
		if x1-x0 < 1 {
			x1 = x0 + 1
		}
		y := rowOf(t)
		cy := y + rowH/2
		if i > 0 {
			c.line(px, py, x0, cy, "#d62728", 1.4)
		}
		c.rect(x0, y+2, x1-x0, rowH-4, "#d62728", 0.95)
		px, py = x1, cy
	}
	for i, id := range laneOrder {
		c.text(8, mT+float64(i)*rowH+rowH-3, 9, fmt.Sprintf("%s t%d", id.worker, id.tid))
	}
	c.line(mL, mT+rowH*float64(len(laneOrder)), mL+plotW, mT+rowH*float64(len(laneOrder)), "#000000", 1)
	c.text(mL, H-8, 10, "0s")
	c.text(mL+plotW-60, H-8, 10, fmt.Sprintf("%.0fs", span))
	c.rect(mL+200, H-18, 10, 10, "#d62728", 0.95)
	c.text(mL+214, H-9, 10, "critical path")
	c.rect(mL+300, H-18, 10, 10, "#bbbbbb", 0.6)
	c.text(mL+314, H-9, 10, "other tasks")
	return c.String(), nil
}
