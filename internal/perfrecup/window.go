package perfrecup

import (
	"fmt"
	"sort"
	"strings"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/provenance"
)

// WindowStats is the paper's "zooming through a specific time period"
// analysis (§IV-D): all activity within [From, To) seconds of one run —
// executing tasks, I/O, communication, and warnings — summarized together.
type WindowStats struct {
	From, To float64

	TasksActive    int // tasks whose execution overlaps the window
	TasksStarted   int
	TasksFinished  int
	ComputeSeconds float64 // execution time inside the window

	IOOps     int
	IOBytes   int64
	IOSeconds float64

	Transfers     int
	TransferBytes int64
	CommSeconds   float64

	Warnings map[string]int

	BusiestPrefix string // task category with the most in-window compute; the smaller prefix on a tie
}

// overlap returns the length of [a0,a1) ∩ [b0,b1).
func overlap(a0, a1, b0, b1 float64) float64 {
	return max(0, min(a1, b1)-max(a0, b0))
}

// Window computes WindowStats for [from, to) seconds.
func Window(art *core.RunArtifacts, from, to float64) (WindowStats, error) {
	w := WindowStats{From: from, To: to, Warnings: map[string]int{}}

	execs, err := art.Records().Executions()
	if err != nil {
		return w, err
	}
	byPrefix := map[string]float64{}
	for _, e := range execs {
		s, p := e.Start.Seconds(), e.Stop.Seconds()
		ov := overlap(s, p, from, to)
		if ov <= 0 {
			continue
		}
		w.TasksActive++
		w.ComputeSeconds += ov
		if s >= from && s < to {
			w.TasksStarted++
		}
		if p >= from && p < to {
			w.TasksFinished++
		}
		byPrefix[dask.KeyPrefix(e.Key)] += ov
	}
	best := 0.0
	for p, v := range byPrefix {
		if v > best || v == best && p < w.BusiestPrefix {
			best, w.BusiestPrefix = v, p
		}
	}

	for _, l := range art.DarshanLogs {
		for _, rec := range l.Records {
			for _, s := range rec.DXT {
				ov := overlap(s.Start, s.End, from, to)
				if ov <= 0 {
					continue
				}
				w.IOOps++
				w.IOBytes += s.Length
				w.IOSeconds += ov
			}
		}
	}

	transfers, err := art.Records().Transfers()
	if err != nil {
		return w, err
	}
	for _, t := range transfers {
		ov := overlap(t.Start.Seconds(), t.Stop.Seconds(), from, to)
		if ov <= 0 {
			continue
		}
		w.Transfers++
		w.TransferBytes += t.Bytes
		w.CommSeconds += ov
	}

	warns, err := art.Records().Warnings()
	if err != nil {
		return w, err
	}
	for _, wr := range warns {
		at := wr.At.Seconds()
		if at >= from && at < to {
			w.Warnings[string(wr.Kind)]++
		}
	}
	return w, nil
}

// Render formats the window summary.
func (w WindowStats) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "window [%.1fs, %.1fs):\n", w.From, w.To)
	fmt.Fprintf(&sb, "  tasks: %d active (%d started, %d finished), %.1fs compute, busiest category %q\n",
		w.TasksActive, w.TasksStarted, w.TasksFinished, w.ComputeSeconds, w.BusiestPrefix)
	fmt.Fprintf(&sb, "  io:    %d ops, %d bytes, %.2fs\n", w.IOOps, w.IOBytes, w.IOSeconds)
	fmt.Fprintf(&sb, "  comm:  %d transfers, %d bytes, %.2fs\n", w.Transfers, w.TransferBytes, w.CommSeconds)
	var kinds []string
	for k := range w.Warnings {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&sb, "  warn:  %s x%d\n", k, w.Warnings[k])
	}
	return sb.String()
}

// ScheduleComparison quantifies how differently two runs of the same
// workflow were scheduled — the paper's "comparison of scheduling
// strategies over runs such as whether tasks were scheduled in the same
// order or not" (§IV-D).
type ScheduleComparison struct {
	CommonTasks    int
	SameWorker     float64 // fraction executed on the same worker address
	OrderAgreement float64 // Spearman correlation of execution start order
	WallDeltaSec   float64 // |wallA - wallB|
}

// CompareSchedules compares two runs' task executions: each key's winning
// execution (provenance.TaskTable) in one run against its winner in the
// other.
func CompareSchedules(a, b *core.RunArtifacts) (ScheduleComparison, error) {
	var out ScheduleComparison
	ta, err := provenance.Tasks(a.Records())
	if err != nil {
		return out, err
	}
	tb, err := provenance.Tasks(b.Records())
	if err != nil {
		return out, err
	}
	var startsA, startsB []float64
	same := 0
	for id := 0; id < ta.Executed; id++ {
		j, ok := tb.ID[string(ta.Key[id])]
		if !ok || j >= tb.Executed {
			continue
		}
		xa, xb := &ta.Execs[ta.Exec[id]], &tb.Execs[tb.Exec[j]]
		out.CommonTasks++
		if xa.Worker == xb.Worker {
			same++
		}
		startsA = append(startsA, xa.Start.Seconds())
		startsB = append(startsB, xb.Start.Seconds())
	}
	if out.CommonTasks > 0 {
		out.SameWorker = float64(same) / float64(out.CommonTasks)
	}
	if len(startsA) >= 2 {
		out.OrderAgreement = Spearman(startsA, startsB)
	}
	out.WallDeltaSec = a.Meta.WallSeconds - b.Meta.WallSeconds
	if out.WallDeltaSec < 0 {
		out.WallDeltaSec = -out.WallDeltaSec
	}
	return out, nil
}

// Render formats the comparison.
func (c ScheduleComparison) Render() string {
	return fmt.Sprintf(
		"common tasks: %d\nsame worker: %.1f%%\nexecution order agreement (spearman): %.3f\nwall-time delta: %.2fs\n",
		c.CommonTasks, 100*c.SameWorker, c.OrderAgreement, c.WallDeltaSec)
}
