package perfrecup

import (
	"fmt"
	"sort"
	"strings"

	"taskprov/internal/core"
	"taskprov/internal/perfrecup/frame"
)

// ClusterTimelineView tabulates the Mofka cluster's replication/failover
// lane: every warning whose kind carries the "cluster_" prefix (broker
// dead/rejoined, leader elections, replica catch-up, under-replication,
// consumer-group rebalances — see internal/mofka/cluster), sorted by
// (at, kind, worker, message) so the view is deterministic regardless of
// partition drain order. Empty for single-broker runs.
func ClusterTimelineView(art *core.RunArtifacts) (*frame.Frame, error) {
	recs, err := art.Records().Warnings()
	if err != nil {
		return nil, err
	}
	type row struct {
		kind, broker, msg string
		at                float64
	}
	var rows []row
	for _, w := range recs {
		if !strings.HasPrefix(string(w.Kind), "cluster_") {
			continue
		}
		rows = append(rows, row{
			kind: string(w.Kind), broker: w.Worker, msg: w.Message, at: w.At.Seconds(),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].at != rows[j].at {
			return rows[i].at < rows[j].at
		}
		if rows[i].kind != rows[j].kind {
			return rows[i].kind < rows[j].kind
		}
		if rows[i].broker != rows[j].broker {
			return rows[i].broker < rows[j].broker
		}
		return rows[i].msg < rows[j].msg
	})
	n := len(rows)
	at := make([]float64, n)
	kind := make([]string, n)
	broker := make([]string, n)
	msg := make([]string, n)
	for i, r := range rows {
		at[i], kind[i], broker[i], msg[i] = r.at, r.kind, r.broker, r.msg
	}
	return frame.New(
		frame.Floats("at", at...),
		frame.Strings("kind", kind...),
		frame.Strings("broker", broker...),
		frame.Strings("message", msg...),
	)
}

// RenderClusterTimeline formats the cluster-health view as a readable
// timeline, one line per event:
//
//	[  42.000s] cluster_broker_dead    broker-1: killed
//
// Returns "" when the run recorded no cluster events (single-broker runs).
func RenderClusterTimeline(f *frame.Frame) string {
	if f.NRows() == 0 {
		return ""
	}
	at := f.Col("at")
	kind := f.Col("kind")
	broker := f.Col("broker")
	msg := f.Col("message")
	var b strings.Builder
	for i := 0; i < f.NRows(); i++ {
		fmt.Fprintf(&b, "[%9.3fs] %-24s %s: %s\n", at.Float(i), kind.Str(i), broker.Str(i), msg.Str(i))
	}
	return b.String()
}
