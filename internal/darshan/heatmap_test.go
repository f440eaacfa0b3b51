package darshan

import (
	"bytes"
	"strings"
	"testing"
)

func TestHeatmapAccumulates(t *testing.T) {
	h := newHeatmap(10) // 10 bins of 0.1s
	h.add(0.05, 100, false)
	h.add(0.15, 200, false)
	h.add(0.15, 50, true)
	if h.ReadBytes[0] != 100 || h.ReadBytes[1] != 200 || h.WriteBytes[1] != 50 {
		t.Fatalf("bins = %v / %v", h.ReadBytes, h.WriteBytes)
	}
	r, w := h.TotalBytes()
	if r != 300 || w != 50 {
		t.Fatalf("totals = %d, %d", r, w)
	}
}

func TestHeatmapFoldsOnOverflow(t *testing.T) {
	h := newHeatmap(4) // covers 0.4s initially
	h.add(0.05, 10, false)
	h.add(0.15, 20, false)
	h.add(0.35, 40, false)
	// Beyond the last bin: width doubles (0.2s bins, covers 0.8s).
	h.add(0.75, 80, false)
	if h.BinSeconds != 0.2 {
		t.Fatalf("bin width = %v", h.BinSeconds)
	}
	// Old bins folded pairwise: [10+20, 0+40, 0, 0] then 80 at bin 3.
	want := []int64{30, 40, 0, 80}
	for i, v := range want {
		if h.ReadBytes[i] != v {
			t.Fatalf("folded bins = %v, want %v", h.ReadBytes, want)
		}
	}
	r, _ := h.TotalBytes()
	if r != 150 {
		t.Fatalf("total after fold = %d", r)
	}
	if h.Span() != 0.8 {
		t.Fatalf("span = %v", h.Span())
	}
}

func TestHeatmapMultipleFolds(t *testing.T) {
	h := newHeatmap(4)
	h.add(0.05, 1, false)
	h.add(100, 2, false) // forces many folds
	r, _ := h.TotalBytes()
	if r != 3 {
		t.Fatalf("bytes lost across folds: %d", r)
	}
	if h.Span() < 100 {
		t.Fatalf("span = %v", h.Span())
	}
}

func TestHeatmapMerge(t *testing.T) {
	a := newHeatmap(4)
	a.add(0.05, 10, false)
	b := newHeatmap(4)
	b.add(0.05, 5, false)
	b.add(0.7, 20, true) // b folds to 0.2s bins
	m := MergeHeatmaps([]*Heatmap{a, b, nil})
	if m.BinSeconds != 0.2 {
		t.Fatalf("merged width = %v", m.BinSeconds)
	}
	r, w := m.TotalBytes()
	if r != 15 || w != 20 {
		t.Fatalf("merged totals = %d, %d", r, w)
	}
	// Merge must not mutate inputs.
	if a.BinSeconds != 0.1 {
		t.Fatal("merge mutated input heatmap")
	}
}

func TestHeatmapRuntimeIntegrationAndRoundTrip(t *testing.T) {
	r := NewRuntime(Config{JobID: "j", Hostname: "n0", DXTEnabled: true})
	r.ReadEvent(op("/f", 1, 0, 4096, 0.0, 0.05))
	r.WriteEvent(op("/f", 1, 0, 1024, 0.2, 0.25))
	log := r.Snapshot()
	if log.Heatmap == nil {
		t.Fatal("snapshot lost heatmap")
	}
	rd, wr := log.Heatmap.TotalBytes()
	if rd != 4096 || wr != 1024 {
		t.Fatalf("heatmap totals = %d, %d", rd, wr)
	}
	var buf bytes.Buffer
	if err := log.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Heatmap == nil || got.Heatmap.BinSeconds != log.Heatmap.BinSeconds {
		t.Fatalf("heatmap round trip lost: %+v", got.Heatmap)
	}
	gr, gw := got.Heatmap.TotalBytes()
	if gr != rd || gw != wr {
		t.Fatalf("round trip totals = %d, %d", gr, gw)
	}
}

func TestHeatmapSurvivesRecordTableOverflow(t *testing.T) {
	// The heatmap's purpose: complete byte totals even when per-file
	// records are dropped.
	c := Config{JobID: "j", MaxFileRecords: 1}
	r := NewRuntime(c)
	r.ReadEvent(op("/a", 1, 0, 100, 0, 0.1))
	r.ReadEvent(op("/b", 1, 0, 200, 0.1, 0.2)) // record dropped
	log := r.Snapshot()
	if log.TotalOps() != 1 {
		t.Fatalf("posix ops = %d (record table should have dropped one)", log.TotalOps())
	}
	rd, _ := log.Heatmap.TotalBytes()
	if rd != 300 {
		t.Fatalf("heatmap read bytes = %d, want 300 (complete)", rd)
	}
}

func TestHeatmapRender(t *testing.T) {
	h := newHeatmap(8)
	h.add(0.05, 1000, false)
	out := h.Render()
	if !strings.Contains(out, "R |") || !strings.Contains(out, "W |") {
		t.Fatalf("render = %q", out)
	}
	if (&Heatmap{}).Render() == "" || strings.Contains((*Heatmap)(nil).Render(), "R |") {
		t.Fatal("degenerate renders wrong")
	}
}
