package perfrecup

import (
	"fmt"
	"sort"
	"strings"

	"taskprov/internal/core"
	"taskprov/internal/perfrecup/frame"
)

// SpeculationTimelineView tabulates the run's hedged-execution and
// adaptive-retry record: every event of the speculation topic (duplicate
// launched, winner settled, loser cancelled with its wasted runtime,
// promotions after a primary died, RPC retries and budget denials), sorted by
// (at, kind, key, duplicate, detail) so the view is deterministic regardless
// of partition drain order. Empty for runs without speculation or retries.
func SpeculationTimelineView(art *core.RunArtifacts) (*frame.Frame, error) {
	recs, err := art.Records().Speculation()
	if err != nil {
		return nil, err
	}
	type row struct {
		kind, key, primary, duplicate, winner, detail string
		at, wasted                                    float64
		attempt                                       int
	}
	rows := make([]row, 0, len(recs))
	for _, e := range recs {
		rows = append(rows, row{
			kind: e.Kind, key: string(e.Key),
			primary: e.Primary, duplicate: e.Duplicate, winner: e.Winner,
			detail: e.Detail, at: e.At.Seconds(),
			wasted: e.Wasted.Seconds(), attempt: e.Attempt,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].at != rows[j].at {
			return rows[i].at < rows[j].at
		}
		if rows[i].kind != rows[j].kind {
			return rows[i].kind < rows[j].kind
		}
		if rows[i].key != rows[j].key {
			return rows[i].key < rows[j].key
		}
		if rows[i].duplicate != rows[j].duplicate {
			return rows[i].duplicate < rows[j].duplicate
		}
		return rows[i].detail < rows[j].detail
	})
	n := len(rows)
	at := make([]float64, n)
	kind := make([]string, n)
	key := make([]string, n)
	primary := make([]string, n)
	duplicate := make([]string, n)
	winner := make([]string, n)
	wasted := make([]float64, n)
	attempt := make([]float64, n)
	detail := make([]string, n)
	for i, r := range rows {
		at[i], kind[i], key[i] = r.at, r.kind, r.key
		primary[i], duplicate[i], winner[i] = r.primary, r.duplicate, r.winner
		wasted[i], attempt[i], detail[i] = r.wasted, float64(r.attempt), r.detail
	}
	return frame.New(
		frame.Floats("at", at...),
		frame.Strings("kind", kind...),
		frame.Strings("key", key...),
		frame.Strings("primary", primary...),
		frame.Strings("duplicate", duplicate...),
		frame.Strings("winner", winner...),
		frame.Floats("wasted", wasted...),
		frame.Floats("attempt", attempt...),
		frame.Strings("detail", detail...),
	)
}

// RenderSpeculationTimeline formats the speculation view as a readable
// timeline, one line per event:
//
//	[  61.200s] launched           sum-0042: straggling for 16s on node1:w2 (duplicate on node0:w1)
//	[  63.850s] won                sum-0042: winner node0:w1
//	[  63.850s] cancelled          sum-0042: loser node1:w2 wasted 18.650s
//
// Returns "" when the run recorded no speculation events.
func RenderSpeculationTimeline(f *frame.Frame) string {
	if f.NRows() == 0 {
		return ""
	}
	at := f.Col("at")
	kind := f.Col("kind")
	key := f.Col("key")
	primary := f.Col("primary")
	duplicate := f.Col("duplicate")
	winner := f.Col("winner")
	wasted := f.Col("wasted")
	attempt := f.Col("attempt")
	detail := f.Col("detail")
	var b strings.Builder
	for i := 0; i < f.NRows(); i++ {
		var what string
		switch kind.Str(i) {
		case "launched":
			what = fmt.Sprintf("%s (duplicate on %s)", detail.Str(i), duplicate.Str(i))
		case "won":
			what = fmt.Sprintf("winner %s", winner.Str(i))
		case "cancelled":
			what = fmt.Sprintf("loser wasted %.3fs", wasted.Float(i))
		case "retry":
			what = fmt.Sprintf("attempt %d to %s: %s", int(attempt.Float(i)), primary.Str(i), detail.Str(i))
		case "budget_exhausted":
			what = fmt.Sprintf("to %s: %s", primary.Str(i), detail.Str(i))
		default:
			what = detail.Str(i)
		}
		subject := key.Str(i)
		if subject == "" {
			subject = "rpc"
		}
		fmt.Fprintf(&b, "[%9.3fs] %-18s %s: %s\n", at.Float(i), kind.Str(i), subject, what)
	}
	return b.String()
}
