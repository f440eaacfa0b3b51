package perfrecup

import (
	"fmt"
	"sort"
	"strings"

	"taskprov/internal/core"
	"taskprov/internal/perfrecup/frame"
)

// RecoveryTimelineView tabulates the run's failure/recovery timeline: every
// warning whose kind is a recovery action (worker_lost, worker_rejoined,
// task_rescheduled, key_recomputed, producer_degraded), sorted by
// (at, kind, worker, message) so the view is deterministic regardless of
// partition drain order. Empty for fault-free runs.
func RecoveryTimelineView(art *core.RunArtifacts) (*frame.Frame, error) {
	recs, err := art.Records().Warnings()
	if err != nil {
		return nil, err
	}
	type row struct {
		kind, worker, host, msg string
		at, dur                 float64
	}
	var rows []row
	for _, w := range recs {
		if !w.Kind.IsRecovery() {
			continue
		}
		rows = append(rows, row{
			kind: string(w.Kind), worker: w.Worker, host: w.Hostname,
			msg: w.Message, at: w.At.Seconds(), dur: w.Duration.Seconds(),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].at != rows[j].at {
			return rows[i].at < rows[j].at
		}
		if rows[i].kind != rows[j].kind {
			return rows[i].kind < rows[j].kind
		}
		if rows[i].worker != rows[j].worker {
			return rows[i].worker < rows[j].worker
		}
		return rows[i].msg < rows[j].msg
	})
	n := len(rows)
	at := make([]float64, n)
	kind := make([]string, n)
	worker := make([]string, n)
	host := make([]string, n)
	dur := make([]float64, n)
	msg := make([]string, n)
	for i, r := range rows {
		at[i], kind[i], worker[i], host[i], dur[i], msg[i] = r.at, r.kind, r.worker, r.host, r.dur, r.msg
	}
	return frame.New(
		frame.Floats("at", at...),
		frame.Strings("kind", kind...),
		frame.Strings("worker", worker...),
		frame.Strings("hostname", host...),
		frame.Floats("duration", dur...),
		frame.Strings("message", msg...),
	)
}

// RenderRecoveryTimeline formats the recovery view as a readable timeline,
// one line per event:
//
//	[  12.500s] worker_lost        worker-3: missed heartbeats
//
// Returns "" when the run had no recovery events.
func RenderRecoveryTimeline(f *frame.Frame) string {
	if f.NRows() == 0 {
		return ""
	}
	at := f.Col("at")
	kind := f.Col("kind")
	worker := f.Col("worker")
	msg := f.Col("message")
	var b strings.Builder
	for i := 0; i < f.NRows(); i++ {
		fmt.Fprintf(&b, "[%9.3fs] %-18s %s: %s\n", at.Float(i), kind.Str(i), worker.Str(i), msg.Str(i))
	}
	return b.String()
}
