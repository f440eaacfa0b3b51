package perfrecup

import (
	"taskprov/internal/core"
	"taskprov/internal/perfrecup/frame"
	"taskprov/internal/provenance"
)

// AttributeIOToTasks performs the paper's central fusion (§III-E3): each
// Darshan DXT segment is attributed to the Dask task that was executing on
// the same (hostname, pthread ID) at the segment's timestamps. The result
// is the DXT view extended with "key" and "prefix" columns (empty when no
// task matches — e.g. I/O from truncated or out-of-window records).
func AttributeIOToTasks(art *core.RunArtifacts) (*frame.Frame, error) {
	dxt, err := DXTView(art)
	if err != nil {
		return nil, err
	}
	execs, err := ExecutionsView(art)
	if err != nil {
		return nil, err
	}
	// Index task windows by (hostname, tid); a window's ref is its row.
	var windows provenance.ThreadWindows
	hostCol := execs.Col("hostname")
	tidCol := execs.Col("thread_id")
	startCol := execs.Col("start")
	stopCol := execs.Col("stop")
	for i := 0; i < execs.NRows(); i++ {
		windows.Add(hostCol.Str(i), uint64(tidCol.Int(i)), startCol.Float(i), stopCol.Float(i), i)
	}

	n := dxt.NRows()
	keys := make([]string, n)
	prefixes := make([]string, n)
	keyCol := execs.Col("key")
	prefCol := execs.Col("prefix")
	dHost := dxt.Col("hostname")
	dTid := dxt.Col("thread_id")
	dStart := dxt.Col("start")
	for i := 0; i < n; i++ {
		if row, ok := windows.Find(dHost.Str(i), uint64(dTid.Int(i)), dStart.Float(i)); ok {
			keys[i] = keyCol.Str(row)
			prefixes[i] = prefCol.Str(row)
		}
	}
	out := dxt.WithColumn(frame.Strings("key", keys...))
	return out.WithColumn(frame.Strings("prefix", prefixes...)), nil
}

// TaskIOSummary aggregates attributed I/O per task: operation count, bytes,
// and cumulative I/O time, joined back onto the executions view. Tasks with
// no I/O get zeros.
func TaskIOSummary(art *core.RunArtifacts) (*frame.Frame, error) {
	attributed, err := AttributeIOToTasks(art)
	if err != nil {
		return nil, err
	}
	execs, err := ExecutionsView(art)
	if err != nil {
		return nil, err
	}
	withIO := attributed.Filter(func(i int) bool { return attributed.Col("key").Str(i) != "" })
	if withIO.NRows() == 0 {
		zero := make([]float64, execs.NRows())
		zcount := make([]int64, execs.NRows())
		out := execs.WithColumn(frame.Ints("io_ops", zcount...))
		out = out.WithColumn(frame.Floats("io_bytes", zero...))
		return out.WithColumn(frame.Floats("io_time", zero...)), nil
	}
	agg := withIO.GroupBy("key").Agg(
		frame.Agg{Col: "length", Fn: frame.Count, As: "io_ops"},
		frame.Agg{Col: "length", Fn: frame.Sum, As: "io_bytes"},
		frame.Agg{Col: "duration", Fn: frame.Sum, As: "io_time"},
	)
	joined, err := execs.Join(agg, frame.Left, "key")
	if err != nil {
		return nil, err
	}
	// Left-join misses leave NaN/0; normalize NaNs to 0 for the float cols.
	n := joined.NRows()
	ops := make([]int64, n)
	bytes := make([]float64, n)
	iotime := make([]float64, n)
	opsCol := joined.Col("io_ops")
	bCol := joined.Col("io_bytes")
	tCol := joined.Col("io_time")
	for i := 0; i < n; i++ {
		ops[i] = opsCol.Int(i)
		if v := bCol.Float(i); v == v { // not NaN
			bytes[i] = v
		}
		if v := tCol.Float(i); v == v {
			iotime[i] = v
		}
	}
	out := joined.WithColumn(frame.Ints("io_ops", ops...))
	out = out.WithColumn(frame.Floats("io_bytes", bytes...))
	return out.WithColumn(frame.Floats("io_time", iotime...)), nil
}
