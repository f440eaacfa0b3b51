package core

import (
	"fmt"
	"sort"
	"strings"
)

// The paper's job-layer provenance keeps the raw scheduler and worker logs
// ("we keep the scheduler logs, which contain data about the
// connection/disconnection of the clients and workers, information,
// warnings, and eventual errors"). This file synthesizes those textual logs
// from the structured event streams so a run directory carries them too —
// the same lines a log-scraping pipeline (like the one behind Fig. 7) would
// parse.

type logLine struct {
	at   float64
	text string
}

func renderLines(lines []logLine) string {
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].at < lines[j].at })
	var sb strings.Builder
	for _, l := range lines {
		fmt.Fprintf(&sb, "%12.6f %s\n", l.at, l.text)
	}
	return sb.String()
}

// RenderSchedulerLog produces the scheduler's textual log: graph
// submissions, task erred events, steals, and graph completions.
func RenderSchedulerLog(art *RunArtifacts) (string, error) {
	var lines []logLine
	recs := art.Records()
	metas, err := recs.TaskMeta()
	if err != nil {
		return "", err
	}
	graphCount := map[int]int{}
	graphAt := map[int]float64{}
	for _, tm := range metas {
		if graphCount[tm.GraphID] == 0 {
			graphAt[tm.GraphID] = tm.At.Seconds()
		}
		graphCount[tm.GraphID]++
	}
	// Graph ids in order, so graphs submitted at the same instant keep one
	// order through the stable sort by time.
	ids := make([]int, 0, len(graphAt))
	for id := range graphAt {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		lines = append(lines, logLine{graphAt[id], fmt.Sprintf(
			"INFO  - Receive graph %d (%d tasks) from client", id, graphCount[id])})
	}
	trans, err := recs.Transitions()
	if err != nil {
		return "", err
	}
	for _, tr := range trans {
		if tr.Location != "scheduler" {
			continue
		}
		switch {
		case tr.To == "erred":
			lines = append(lines, logLine{tr.At.Seconds(), fmt.Sprintf(
				"ERROR - Task %s marked erred (%s)", tr.Key, tr.Stimulus)})
		case tr.Stimulus == "retry":
			lines = append(lines, logLine{tr.At.Seconds(), fmt.Sprintf(
				"WARN  - Retrying task %s after failure", tr.Key)})
		}
	}
	steals, err := recs.Steals()
	if err != nil {
		return "", err
	}
	for _, s := range steals {
		lines = append(lines, logLine{s.At.Seconds(), fmt.Sprintf(
			"INFO  - Moving task %s from %s to %s (work stealing)", s.Key, s.Victim, s.Thief)})
	}
	graphs, err := recs.Graphs()
	if err != nil {
		return "", err
	}
	for _, g := range graphs {
		lines = append(lines, logLine{g.At, fmt.Sprintf("INFO  - Graph %d complete", g.GraphID)})
	}
	return renderLines(lines), nil
}

// RenderWorkerLogs produces the textual logs of the given workers, in their
// order, from one pass over the warnings and executions topics: the warnings
// in the exact phrasing Dask workers emit (the strings log-scrapers match on).
func RenderWorkerLogs(art *RunArtifacts, workers []string) ([]string, error) {
	type bucket struct {
		lines    []logLine
		executed int
	}
	buckets := make(map[string]*bucket, len(workers))
	for _, w := range workers {
		buckets[w] = &bucket{}
	}
	recs := art.Records()
	warns, err := recs.Warnings()
	if err != nil {
		return nil, err
	}
	for _, w := range warns {
		b := buckets[w.Worker]
		if b == nil {
			continue
		}
		switch w.Kind {
		case "unresponsive_event_loop":
			b.lines = append(b.lines, logLine{w.At.Seconds(), fmt.Sprintf(
				"WARN  - Event loop was unresponsive in Worker for %.2fs. This is often caused by long-running GIL-holding functions", w.Duration.Seconds())})
		case "gc_collection":
			b.lines = append(b.lines, logLine{w.At.Seconds(), fmt.Sprintf(
				"WARN  - full garbage collection took %.0f ms", 1000*w.Duration.Seconds())})
		default:
			b.lines = append(b.lines, logLine{w.At.Seconds(), "WARN  - " + w.Message})
		}
	}
	execs, err := recs.Executions()
	if err != nil {
		return nil, err
	}
	for _, e := range execs {
		if b := buckets[e.Worker]; b != nil {
			b.executed++
		}
	}
	logs := make([]string, len(workers))
	for i, w := range workers {
		b := buckets[w]
		lines := append(b.lines, logLine{0, fmt.Sprintf("INFO  - Start worker at %s", w)})
		logs[i] = renderLines(lines) + fmt.Sprintf("%12s INFO  - Worker executed %d tasks\n", "---", b.executed)
	}
	return logs, nil
}

// WorkerAddrs lists the worker addresses observed in the run.
func (a *RunArtifacts) WorkerAddrs() ([]string, error) {
	recs := a.Records()
	execs, err := recs.Executions()
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	for _, e := range execs {
		set[e.Worker] = true
	}
	hbs, err := recs.Heartbeats()
	if err != nil {
		return nil, err
	}
	for _, hb := range hbs {
		set[hb.Worker] = true
	}
	var out []string
	for w := range set {
		if w != "" {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out, nil
}
