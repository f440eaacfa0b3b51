package perfrecup

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"taskprov/internal/core"
	"taskprov/internal/perfrecup/frame"
)

// RenderTableIRow formats one workflow's Table I row from measured
// artifacts.
func RenderTableIRow(art *core.RunArtifacts) (string, error) {
	graphs, err := art.TaskGraphs()
	if err != nil {
		return "", err
	}
	tasks, err := art.DistinctTasks()
	if err != nil {
		return "", err
	}
	comms, err := art.TotalCommunications()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%-16s graphs=%-3d tasks=%-6d files=%-5d io_ops=%-5d comms=%-5d",
		art.Meta.Workflow, graphs, tasks, art.DistinctFiles(), art.TotalIOOps(), comms), nil
}

// IOTimeline renders the Fig. 4 view: per-thread I/O activity over elapsed
// time. Each row is one thread; columns are time bins; 'R'/'W' mark bins
// dominated by reads/writes ('r'/'w' for small accesses, '.' idle). The
// paper encodes size as opacity; here lowercase marks accesses below
// smallCutoff bytes.
func IOTimeline(art *core.RunArtifacts, bins int, smallCutoff int64) (string, error) {
	dxt, err := DXTView(art)
	if err != nil {
		return "", err
	}
	if dxt.NRows() == 0 {
		return "(no I/O recorded)", nil
	}
	endCol := dxt.Col("end")
	maxT := 0.0
	for i := 0; i < dxt.NRows(); i++ {
		if v := endCol.Float(i); v > maxT {
			maxT = v
		}
	}
	if bins <= 0 {
		bins = 100
	}
	width := maxT / float64(bins)
	if width <= 0 {
		width = 1
	}
	type cell struct {
		readBytes, writeBytes int64
		maxLen                int64
	}
	grid := map[int64][]cell{} // tid -> bins
	tidCol := dxt.Col("thread_id")
	opCol := dxt.Col("op")
	lenCol := dxt.Col("length")
	startCol := dxt.Col("start")
	for i := 0; i < dxt.NRows(); i++ {
		tid := tidCol.Int(i)
		if _, ok := grid[tid]; !ok {
			grid[tid] = make([]cell, bins)
		}
		b0 := int(startCol.Float(i) / width)
		b1 := int(endCol.Float(i) / width)
		for b := b0; b <= b1 && b < bins; b++ {
			if b < 0 {
				continue
			}
			c := &grid[tid][b]
			if opCol.Str(i) == "read" {
				c.readBytes += lenCol.Int(i)
			} else {
				c.writeBytes += lenCol.Int(i)
			}
			if lenCol.Int(i) > c.maxLen {
				c.maxLen = lenCol.Int(i)
			}
		}
	}
	tids := make([]int64, 0, len(grid))
	for tid := range grid {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(a, b int) bool { return tids[a] < tids[b] })

	var sb strings.Builder
	fmt.Fprintf(&sb, "per-thread I/O over %.1fs (%d bins of %.2fs; R/W=large, r/w=small <%d B)\n",
		maxT, bins, width, smallCutoff)
	for _, tid := range tids {
		fmt.Fprintf(&sb, "tid %6d |", tid)
		for _, c := range grid[tid] {
			ch := byte('.')
			switch {
			case c.readBytes == 0 && c.writeBytes == 0:
			case c.readBytes >= c.writeBytes && c.maxLen >= smallCutoff:
				ch = 'R'
			case c.readBytes >= c.writeBytes:
				ch = 'r'
			case c.maxLen >= smallCutoff:
				ch = 'W'
			default:
				ch = 'w'
			}
			sb.WriteByte(ch)
		}
		sb.WriteString("|\n")
	}
	return sb.String(), nil
}

// CommBucket summarizes transfers whose size falls in [LoBytes, HiBytes).
// Proxied counts the bucket's pass-by-reference transfers and
// MeanResolveSec averages their demand-to-arrival resolution latency —
// the proxy-resolution view joined into the communication scatter.
type CommBucket struct {
	LoBytes, HiBytes     int64
	Count                int
	MeanSec, MaxSec      float64
	P95Sec               float64
	InterNode, IntraNode int
	Proxied              int
	MeanResolveSec       float64
}

// CommScatter produces the Fig. 5 view: transfer duration versus size,
// split by intra- vs inter-node, summarized into logarithmic size buckets.
func CommScatter(art *core.RunArtifacts) ([]CommBucket, error) {
	tr, err := TransfersView(art)
	if err != nil {
		return nil, err
	}
	if tr.NRows() == 0 {
		return nil, nil
	}
	type acc struct {
		durs         []float64
		resolves     []float64
		inter, intra int
		proxied      int
	}
	buckets := map[int]*acc{}
	bytesCol := tr.Col("bytes")
	durCol := tr.Col("duration")
	sameCol := tr.Col("same_node")
	proxyCol := tr.Col("via_proxy")
	resolveCol := tr.Col("resolve_latency")
	for i := 0; i < tr.NRows(); i++ {
		b := bytesCol.Int(i)
		idx := 0
		if b > 0 {
			idx = int(math.Log2(float64(b)))
		}
		a, ok := buckets[idx]
		if !ok {
			a = &acc{}
			buckets[idx] = a
		}
		a.durs = append(a.durs, durCol.Float(i))
		if sameCol.Bool(i) {
			a.intra++
		} else {
			a.inter++
		}
		if proxyCol.Bool(i) {
			a.proxied++
			a.resolves = append(a.resolves, resolveCol.Float(i))
		}
	}
	var idxs []int
	for i := range buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var out []CommBucket
	for _, i := range idxs {
		a := buckets[i]
		_, max := MinMax(a.durs)
		cb := CommBucket{
			LoBytes: 1 << i, HiBytes: 1 << (i + 1),
			Count: len(a.durs), MeanSec: Mean(a.durs), MaxSec: max,
			P95Sec: Percentile(a.durs, 95), InterNode: a.inter, IntraNode: a.intra,
			Proxied: a.proxied,
		}
		if a.proxied > 0 {
			cb.MeanResolveSec = Mean(a.resolves)
		}
		out = append(out, cb)
	}
	return out, nil
}

// RenderCommScatter formats the Fig. 5 buckets.
func RenderCommScatter(buckets []CommBucket) string {
	var sb strings.Builder
	sb.WriteString("size-bucket            n     mean(s)   p95(s)    max(s)   inter/intra  proxied  resolve(s)\n")
	for _, b := range buckets {
		fmt.Fprintf(&sb, "[%9d,%9d) %-5d %-9.5f %-9.5f %-8.5f %-12s %-8d %.5f\n",
			b.LoBytes, b.HiBytes, b.Count, b.MeanSec, b.P95Sec, b.MaxSec,
			fmt.Sprintf("%d/%d", b.InterNode, b.IntraNode), b.Proxied, b.MeanResolveSec)
	}
	return sb.String()
}

// ParallelCoords produces the Fig. 6 view: one row per task with the five
// coordinates the paper plots — elapsed time (start), task category
// (prefix), executing thread, output size (MB), duration (s) — sorted by
// duration descending.
func ParallelCoords(art *core.RunArtifacts) (*frame.Frame, error) {
	execs, err := ExecutionsView(art)
	if err != nil {
		return nil, err
	}
	n := execs.NRows()
	sizeMB := make([]float64, n)
	sizeCol := execs.Col("output_size")
	for i := 0; i < n; i++ {
		sizeMB[i] = float64(sizeCol.Int(i)) / (1 << 20)
	}
	out := execs.Select("start", "prefix", "thread_id", "duration", "key").
		WithColumn(frame.Floats("output_mb", sizeMB...))
	return out.SortBy("duration", true), nil
}

// RenderParallelCoords formats the top rows of the Fig. 6 view plus a
// per-category summary.
func RenderParallelCoords(f *frame.Frame, top int) string {
	var sb strings.Builder
	sb.WriteString("elapsed(s)  category                      thread   out(MB)   duration(s)\n")
	h := f.Head(top)
	for i := 0; i < h.NRows(); i++ {
		fmt.Fprintf(&sb, "%-11.2f %-29s %-8d %-9.1f %.3f\n",
			h.Col("start").Float(i), h.Col("prefix").Str(i),
			h.Col("thread_id").Int(i), h.Col("output_mb").Float(i),
			h.Col("duration").Float(i))
	}
	sb.WriteString("\nper-category durations:\n")
	agg := f.GroupBy("prefix").Agg(
		frame.Agg{Col: "duration", Fn: frame.Mean},
		frame.Agg{Col: "duration", Fn: frame.Max},
		frame.Agg{Col: "duration", Fn: frame.Count, As: "n"},
		frame.Agg{Col: "output_mb", Fn: frame.Mean},
	).SortBy("duration_max", true)
	for i := 0; i < agg.NRows(); i++ {
		fmt.Fprintf(&sb, "%-29s n=%-6d mean=%-8.3fs max=%-8.3fs out=%.1fMB\n",
			agg.Col("prefix").Str(i), agg.Col("n").Int(i),
			agg.Col("duration_mean").Float(i), agg.Col("duration_max").Float(i),
			agg.Col("output_mb_mean").Float(i))
	}
	return sb.String()
}

// WarningHistogram produces the Fig. 7 view: warning counts per time bin,
// per warning kind.
func WarningHistogram(art *core.RunArtifacts, binSeconds float64) (map[string]Histogram, error) {
	wv, err := WarningsView(art)
	if err != nil {
		return nil, err
	}
	end := art.Meta.WallSeconds
	if end <= 0 {
		end = 1
	}
	nbins := max(int(math.Ceil(end/binSeconds)), 1)
	byKind := map[string][]float64{}
	kindCol := wv.Col("kind")
	atCol := wv.Col("at")
	for i := 0; i < wv.NRows(); i++ {
		k := kindCol.Str(i)
		byKind[k] = append(byKind[k], atCol.Float(i))
	}
	out := map[string]Histogram{}
	for k, at := range byKind {
		out[k] = NewHistogram(at, 0, float64(nbins)*binSeconds, nbins)
	}
	return out, nil
}

// RenderWarningHistogram formats the Fig. 7 histograms.
func RenderWarningHistogram(h map[string]Histogram, binSeconds float64) string {
	var kinds []string
	for k := range h {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var sb strings.Builder
	for _, k := range kinds {
		hist := h[k]
		fmt.Fprintf(&sb, "%s (total %d):\n", k, hist.Total())
		for i, c := range hist.Counts {
			if c == 0 {
				continue
			}
			bar := strings.Repeat("#", min(c, 60))
			fmt.Fprintf(&sb, "  [%6.0fs-%6.0fs) %4d %s\n",
				float64(i)*binSeconds, float64(i+1)*binSeconds, c, bar)
		}
	}
	return sb.String()
}

// RenderPhaseStats formats the Fig. 3 series: normalized phase means with
// error bars for a set of workflows.
func RenderPhaseStats(stats []PhaseStats) string {
	var sb strings.Builder
	sb.WriteString("workflow         runs  phase    norm-mean  norm-std   raw-mean(s)  raw-std(s)\n")
	for _, s := range stats {
		rows := []struct {
			name   string
			nm, ns float64
			rm, rs float64
		}{
			{"io", s.NormIO, s.NormIOStd, s.MeanIO, s.StdIO},
			{"comm", s.NormComm, s.NormCommStd, s.MeanComm, s.StdComm},
			{"compute", s.NormCompute, s.NormComputeStd, s.MeanCompute, s.StdCompute},
			{"total", s.NormTotal, s.NormTotalStd, s.MeanTotal, s.StdTotal},
		}
		for _, r := range rows {
			fmt.Fprintf(&sb, "%-16s %-5d %-8s %-10.4f %-10.4f %-12.2f %-10.2f\n",
				s.Workflow, s.Runs, r.name, r.nm, r.ns, r.rm, r.rs)
		}
	}
	return sb.String()
}
