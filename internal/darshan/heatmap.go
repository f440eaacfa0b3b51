package darshan

import (
	"fmt"
	"strings"
)

// The HEATMAP module (Darshan >= 3.4) records time-binned read/write byte
// counts per process, independent of per-file records — cheap always-on
// context for when DXT is too expensive or truncated. Bins double in width
// when the runtime outgrows the fixed bin count, exactly like Darshan's
// implementation.

// DefaultHeatmapBins matches Darshan's default heatmap width.
const DefaultHeatmapBins = 100

// Heatmap is the per-process module state.
type Heatmap struct {
	BinSeconds float64 // current width of one bin
	ReadBytes  []int64
	WriteBytes []int64
}

// newHeatmap creates a heatmap with the given bin count and an initial bin
// width of 0.1s.
func newHeatmap(bins int) *Heatmap {
	return &Heatmap{
		BinSeconds: 0.1,
		ReadBytes:  make([]int64, bins),
		WriteBytes: make([]int64, bins),
	}
}

// add accumulates bytes at timestamp t (seconds), doubling bin width (and
// folding counts) whenever t falls beyond the last bin.
func (h *Heatmap) add(t float64, bytes int64, write bool) {
	if t < 0 {
		t = 0
	}
	for int(t/h.BinSeconds) >= len(h.ReadBytes) {
		h.fold()
	}
	b := int(t / h.BinSeconds)
	if write {
		h.WriteBytes[b] += bytes
	} else {
		h.ReadBytes[b] += bytes
	}
}

// fold doubles the bin width, merging adjacent bins.
func (h *Heatmap) fold() {
	n := len(h.ReadBytes)
	for i := 0; i < n/2; i++ {
		h.ReadBytes[i] = h.ReadBytes[2*i] + h.ReadBytes[2*i+1]
		h.WriteBytes[i] = h.WriteBytes[2*i] + h.WriteBytes[2*i+1]
	}
	for i := n / 2; i < n; i++ {
		h.ReadBytes[i] = 0
		h.WriteBytes[i] = 0
	}
	h.BinSeconds *= 2
}

// clone deep-copies the heatmap.
func (h *Heatmap) clone() *Heatmap {
	return &Heatmap{
		BinSeconds: h.BinSeconds,
		ReadBytes:  append([]int64(nil), h.ReadBytes...),
		WriteBytes: append([]int64(nil), h.WriteBytes...),
	}
}

// MergeHeatmaps combines per-process heatmaps onto the coarsest bin width.
func MergeHeatmaps(hs []*Heatmap) *Heatmap {
	var out *Heatmap
	for _, h := range hs {
		if h == nil {
			continue
		}
		c := h.clone()
		if out == nil {
			out = c
			continue
		}
		for out.BinSeconds < c.BinSeconds {
			out.fold()
		}
		for c.BinSeconds < out.BinSeconds {
			c.fold()
		}
		for i := range out.ReadBytes {
			if i < len(c.ReadBytes) {
				out.ReadBytes[i] += c.ReadBytes[i]
				out.WriteBytes[i] += c.WriteBytes[i]
			}
		}
	}
	return out
}

// Render draws the heatmap as two text sparklines (reads and writes).
func (h *Heatmap) Render() string {
	if h == nil {
		return "(no heatmap)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "heatmap: %d bins of %.2fs\n", len(h.ReadBytes), h.BinSeconds)
	sb.WriteString("  R |" + sparkline(h.ReadBytes) + "|\n")
	sb.WriteString("  W |" + sparkline(h.WriteBytes) + "|\n")
	return sb.String()
}

var sparkChars = []rune(" .:-=+*#%@")

func sparkline(vals []int64) string {
	var max int64 = 1
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		idx := int(int64(len(sparkChars)-1) * v / max)
		out[i] = sparkChars[idx]
	}
	return string(out)
}
