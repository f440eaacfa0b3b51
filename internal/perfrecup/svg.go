package perfrecup

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"taskprov/internal/core"
)

// The SVG renderers make PERFRECUP a "visualization engine" in the paper's
// sense: each figure can be emitted as a standalone SVG document alongside
// its textual form. Only the stdlib is used; the output is deliberately
// simple, well-formed XML.

// svgCanvas accumulates SVG elements.
type svgCanvas struct {
	w, h float64
	b    strings.Builder
}

func newCanvas(w, h float64) *svgCanvas {
	c := &svgCanvas{w: w, h: h}
	fmt.Fprintf(&c.b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n", w, h, w, h)
	c.rect(0, 0, w, h, "#ffffff", 0)
	return c
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

func (c *svgCanvas) rect(x, y, w, h float64, fill string, opacity float64) {
	if opacity <= 0 || opacity > 1 {
		opacity = 1
	}
	fmt.Fprintf(&c.b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" fill-opacity="%.2f"/>`+"\n",
		x, y, w, h, fill, opacity)
}

func (c *svgCanvas) line(x1, y1, x2, y2 float64, stroke string, width float64) {
	fmt.Fprintf(&c.b, `<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="%.1f"/>`+"\n",
		x1, y1, x2, y2, stroke, width)
}

func (c *svgCanvas) circle(x, y, r float64, fill string, opacity float64) {
	if opacity <= 0 || opacity > 1 {
		opacity = 1
	}
	fmt.Fprintf(&c.b, `<circle cx="%.2f" cy="%.2f" r="%.2f" fill="%s" fill-opacity="%.2f"/>`+"\n",
		x, y, r, fill, opacity)
}

func (c *svgCanvas) text(x, y float64, size float64, s string) {
	fmt.Fprintf(&c.b, `<text x="%.2f" y="%.2f" font-family="sans-serif" font-size="%.0f">%s</text>`+"\n",
		x, y, size, esc(s))
}

func (c *svgCanvas) String() string { return c.b.String() + "</svg>\n" }

// phase colors (I/O, comm, compute, total), colorblind-safe-ish.
var phaseColors = [4]string{"#d95f02", "#7570b3", "#1b9e77", "#666666"}

// PhaseBarsSVG renders Fig. 3: per workflow, four normalized bars (I/O,
// communication, computation, total) with ±1σ error bars.
func PhaseBarsSVG(stats []PhaseStats) string {
	const W, H, mL, mB, mT = 720.0, 360.0, 60.0, 60.0, 40.0
	c := newCanvas(W, H)
	c.text(mL, 24, 16, "Relative time per phase (mean ± std, normalized per run)")
	plotW := W - mL - 20
	plotH := H - mB - mT
	y0 := H - mB
	// Axes.
	c.line(mL, mT, mL, y0, "#000000", 1)
	c.line(mL, y0, mL+plotW, y0, "#000000", 1)
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		y := y0 - f*plotH
		c.line(mL-4, y, mL, y, "#000000", 1)
		c.text(14, y+4, 11, fmt.Sprintf("%.2f", f))
	}
	if len(stats) == 0 {
		return c.String()
	}
	group := plotW / float64(len(stats))
	barW := group / 6
	labels := [4]string{"io", "comm", "compute", "total"}
	for i, s := range stats {
		gx := mL + float64(i)*group
		vals := [4]float64{s.NormIO, s.NormComm, s.NormCompute, s.NormTotal}
		stds := [4]float64{s.NormIOStd, s.NormCommStd, s.NormComputeStd, s.NormTotalStd}
		for j := 0; j < 4; j++ {
			v, sd := vals[j], stds[j]
			if math.IsNaN(v) {
				v = 0
			}
			x := gx + barW*(0.8+float64(j)*1.1)
			h := v * plotH
			c.rect(x, y0-h, barW, h, phaseColors[j], 0.9)
			// Error bar.
			if sd > 0 {
				cx := x + barW/2
				c.line(cx, y0-(v+sd)*plotH, cx, y0-math.Max(0, v-sd)*plotH, "#000000", 1.2)
				c.line(cx-3, y0-(v+sd)*plotH, cx+3, y0-(v+sd)*plotH, "#000000", 1.2)
				c.line(cx-3, y0-math.Max(0, v-sd)*plotH, cx+3, y0-math.Max(0, v-sd)*plotH, "#000000", 1.2)
			}
		}
		c.text(gx+group/2-30, y0+18, 12, s.Workflow)
		c.text(gx+group/2-30, y0+34, 10, fmt.Sprintf("%d runs", s.Runs))
	}
	// Legend.
	lx := mL
	for j, lab := range labels {
		c.rect(lx, 30, 10, 10, phaseColors[j], 0.9)
		c.text(lx+14, 39, 11, lab)
		lx += 80
	}
	return c.String()
}

// WarningHistogramSVG renders Fig. 7: warning counts per time bin, one band
// per warning kind.
func WarningHistogramSVG(h map[string]Histogram, binSeconds float64) string {
	const W, bandH, mL = 720.0, 140.0, 60.0
	kinds := make([]string, 0, len(h))
	for k := range h {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	H := 40 + bandH*float64(len(kinds)) + 30
	c := newCanvas(W, H)
	c.text(mL, 24, 16, "Warning distribution over time")
	colors := []string{"#e41a1c", "#377eb8", "#4daf4a", "#984ea3"}
	for bi, kind := range kinds {
		hist := h[kind]
		top := 40 + bandH*float64(bi)
		y0 := top + bandH - 30
		maxC := 1
		for _, n := range hist.Counts {
			if n > maxC {
				maxC = n
			}
		}
		plotW := W - mL - 20
		bw := plotW / float64(len(hist.Counts))
		for i, n := range hist.Counts {
			if n == 0 {
				continue
			}
			bh := float64(n) / float64(maxC) * (bandH - 50)
			c.rect(mL+float64(i)*bw, y0-bh, bw*0.9, bh, colors[bi%len(colors)], 0.85)
		}
		c.line(mL, y0, mL+plotW, y0, "#000000", 1)
		c.text(mL, top+2, 12, fmt.Sprintf("%s (total %d, bins of %.0fs)", kind, hist.Total(), binSeconds))
		c.text(mL+plotW-60, y0+16, 10, fmt.Sprintf("%.0fs", float64(len(hist.Counts))*binSeconds))
		c.text(mL, y0+16, 10, "0s")
	}
	return c.String()
}

// IOTimelineSVG renders Fig. 4: one horizontal band per thread, red
// segments for reads and blue for writes, opacity scaled by access size.
func IOTimelineSVG(art *core.RunArtifacts) (string, error) {
	dxt, err := DXTView(art)
	if err != nil {
		return "", err
	}
	const W, rowH, mL, mT = 900.0, 14.0, 80.0, 50.0
	tids := map[int64]int{}
	var order []int64
	tidCol := dxt.Col("thread_id")
	for i := 0; i < dxt.NRows(); i++ {
		tid := tidCol.Int(i)
		if _, ok := tids[tid]; !ok {
			tids[tid] = 0
			order = append(order, tid)
		}
	}
	slices.Sort(order)
	for i, tid := range order {
		tids[tid] = i
	}
	H := mT + rowH*float64(len(order)) + 30
	c := newCanvas(W, H)
	c.text(mL, 24, 16, fmt.Sprintf("Per-thread I/O over time — %s", art.Meta.Workflow))
	maxT, maxLen := 1e-9, int64(1)
	endCol := dxt.Col("end")
	lenCol := dxt.Col("length")
	for i := 0; i < dxt.NRows(); i++ {
		if v := endCol.Float(i); v > maxT {
			maxT = v
		}
		if v := lenCol.Int(i); v > maxLen {
			maxLen = v
		}
	}
	plotW := W - mL - 20
	startCol := dxt.Col("start")
	opCol := dxt.Col("op")
	for i := 0; i < dxt.NRows(); i++ {
		row := tids[tidCol.Int(i)]
		x0 := mL + startCol.Float(i)/maxT*plotW
		x1 := mL + endCol.Float(i)/maxT*plotW
		if x1-x0 < 1 {
			x1 = x0 + 1
		}
		color := "#d62728" // read: red
		if opCol.Str(i) == "write" {
			color = "#1f77b4" // write: blue
		}
		opacity := 0.25 + 0.75*float64(lenCol.Int(i))/float64(maxLen)
		c.rect(x0, mT+float64(row)*rowH+2, x1-x0, rowH-4, color, opacity)
	}
	for i, tid := range order {
		c.text(8, mT+float64(i)*rowH+rowH-3, 9, fmt.Sprintf("tid %d", tid))
	}
	c.line(mL, mT+rowH*float64(len(order)), mL+plotW, mT+rowH*float64(len(order)), "#000000", 1)
	c.text(mL+plotW-50, H-8, 10, fmt.Sprintf("%.0fs", maxT))
	c.text(mL, H-8, 10, "0s")
	return c.String(), nil
}

// CommScatterSVG renders Fig. 5: transfer duration vs size on log-log
// scales, orange = inter-node, teal = intra-node.
func CommScatterSVG(art *core.RunArtifacts) (string, error) {
	tr, err := TransfersView(art)
	if err != nil {
		return "", err
	}
	const W, H, mL, mB, mT = 720.0, 420.0, 70.0, 50.0, 40.0
	c := newCanvas(W, H)
	c.text(mL, 24, 16, fmt.Sprintf("Communication time vs size — %s", art.Meta.Workflow))
	if tr.NRows() == 0 {
		return c.String(), nil
	}
	plotW, plotH := W-mL-20, H-mB-mT
	y0 := H - mB
	bytesCol := tr.Col("bytes")
	durCol := tr.Col("duration")
	sameCol := tr.Col("same_node")
	minX, maxX := math.Inf(1), 1.0
	minY, maxY := math.Inf(1), 1e-9
	for i := 0; i < tr.NRows(); i++ {
		x := math.Max(1, float64(bytesCol.Int(i)))
		y := math.Max(1e-7, durCol.Float(i))
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	lx := func(v float64) float64 {
		return mL + (math.Log10(v)-math.Log10(minX))/(math.Log10(maxX)-math.Log10(minX)+1e-12)*plotW
	}
	ly := func(v float64) float64 {
		return y0 - (math.Log10(v)-math.Log10(minY))/(math.Log10(maxY)-math.Log10(minY)+1e-12)*plotH
	}
	for i := 0; i < tr.NRows(); i++ {
		x := math.Max(1, float64(bytesCol.Int(i)))
		y := math.Max(1e-7, durCol.Float(i))
		color := "#ff7f0e" // inter-node: orange
		if sameCol.Bool(i) {
			color = "#2ca02c" // intra-node: green
		}
		c.circle(lx(x), ly(y), 2.4, color, 0.55)
	}
	c.line(mL, mT, mL, y0, "#000000", 1)
	c.line(mL, y0, mL+plotW, y0, "#000000", 1)
	c.text(mL+plotW/2-60, H-12, 12, "transfer size (bytes, log)")
	c.text(8, mT+plotH/2, 12, "time (s, log)")
	c.rect(mL, 30, 10, 10, "#ff7f0e", 0.9)
	c.text(mL+14, 39, 11, "inter-node")
	c.rect(mL+110, 30, 10, 10, "#2ca02c", 0.9)
	c.text(mL+124, 39, 11, "intra-node")
	return c.String(), nil
}
