package workloads

import (
	"io/fs"
	"path/filepath"
	"runtime"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/live"
	"taskprov/internal/mofka"
	"taskprov/internal/perfrecup"
	"taskprov/internal/provenance"
	"taskprov/internal/whatif"
)

// mallocs counts the heap allocations f makes.
func mallocs(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// TestReadPathAllocationBudget guards the read side the way
// TestCollectorAllocationBudget guards the write side: per event of a seeded
// imageprocessing data dir, opening it post-mortem and replaying it through
// the live aggregator stay within their budgets: half again of the typed,
// one-pass open when it landed (0.022; the record-at-a-time open cost 5.0),
// and for the replay under twice what it measures with its task-meta
// dependencies in the decoder's arena (0.093; 0.26 when its decoder interned
// names, 4.80 when every string was copied, 31.1 decoding to maps, 0.18 with
// names borrowed from the stored bytes and a slice per event's dependencies).
// perfrecup.Phases over the loaded dir, counted per event of the whole dir,
// stays within half again of what replaying only the phase topics measured
// (0.091, 0.008 borrowing); replaying every topic, as it used to, costs 0.26.
func TestReadPathAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	const openBudget, replayBudget, phasesBudget = 0.033, 0.18, 0.14
	wf, err := New("imageprocessing")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "log")
	cfg := DefaultSession("imageprocessing", "job-read-budget", 5)
	cfg.MofkaDataDir = dir
	if _, err := core.Run(cfg, wf); err != nil {
		t.Fatal(err)
	}

	var b *mofka.Broker
	open := mallocs(func() { b, err = mofka.OpenPostMortem(dir) })
	if err != nil {
		t.Fatal(err)
	}
	var events float64
	for _, name := range b.Topics() {
		tp, err := b.OpenTopic(name)
		if err != nil {
			t.Fatal(err)
		}
		events += float64(tp.Events())
	}
	if events < 50000 {
		t.Fatalf("the data dir holds %v events, want the whole run's", events)
	}
	agg := live.NewAggregator(live.AggregatorOptions{})
	replay := mallocs(func() { err = live.ReplayBroker(b, agg) })
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.Snapshot().Events; float64(got) != events {
		t.Fatalf("replayed %d of %v events", got, events)
	}
	art, err := perfrecup.LoadEventLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	phases := mallocs(func() { _, err = perfrecup.Phases(art) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v events: %.3f allocations per event opened, %.3f per event replayed, %.3f per event for Phases", events, open/events, replay/events, phases/events)
	// Under the race detector the admission check's pooled JSON scanner
	// allocates about every other event; the open's own count is not visible.
	if open/events > openBudget && !raceEnabled {
		t.Errorf("OpenPostMortem costs %.3f allocations per event, budget %v", open/events, openBudget)
	}
	if replay/events > replayBudget {
		t.Errorf("ReplayBroker costs %.3f allocations per event, budget %v", replay/events, replayBudget)
	}
	if phases/events > phasesBudget {
		t.Errorf("perfrecup.Phases costs %.3f allocations per event of the dir, budget %v", phases/events, phasesBudget)
	}
}

// TestExtractAllocationBudget pins what a cold whatif.Extract allocates per
// event of a seeded xgboost run: the four topics it reads decoded from the
// stored bytes through a fresh provenance.Records. The budgets are a tenth
// over what it measures with every name borrowed from the stored bytes and
// the task-meta dependencies in the decoder's arena (124.4 B and 0.213
// mallocs per event). One shared interning decoder measured 139.3 B and
// 0.421; copying every string, Extract made 146.8 B and 1.013; borrowing
// names with a slice per event's dependencies, 125.3 B and 0.335.
func TestExtractAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const bytesBudget, mallocsBudget = 137, 0.234
	art := seededRun(t, "xgboost")
	events := float64(collected(art))
	// The memoized run's records may still be warm (Execute extracted once),
	// so measure a cold extract through records of its own.
	in := art.WhatIfInput()
	in.Records = provenance.NewRecords(art.Broker)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := whatif.Extract(in); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / events
	mallocs := float64(after.Mallocs-before.Mallocs) / events
	t.Logf("whatif.Extract over %v events: %.1f B and %.3f mallocs per event", events, bytes, mallocs)
	if bytes > bytesBudget {
		t.Errorf("whatif.Extract allocates %.1f B per event, budget %v", bytes, bytesBudget)
	}
	if mallocs > mallocsBudget {
		t.Errorf("whatif.Extract makes %.3f mallocs per event, budget %v", mallocs, mallocsBudget)
	}
}

// TestPostMortemOpenAllocatesItsSegments: opening a seeded imageprocessing
// data dir post-mortem allocates at most 1.75 times the bytes of its segment
// files. Each segment is read once into a buffer of its own and the stored
// documents are slices of it; what else the open allocates — the document
// pages, the records of each segment in hand — is a fraction of that. It
// allocated 2.5 to 3.0 times them while the log read through a 1 MiB buffer
// it reused and the partition copied every event into an envelope.
func TestPostMortemOpenAllocatesItsSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	wf, err := New("imageprocessing")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "log")
	cfg := DefaultSession("imageprocessing", "job-open-bytes", 5)
	cfg.MofkaDataDir = dir
	if _, err := core.Run(cfg, wf); err != nil {
		t.Fatal(err)
	}
	var segBytes int64
	err = filepath.WalkDir(filepath.Join(dir, "topics"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".seg" {
			return err
		}
		info, err := d.Info()
		segBytes += info.Size()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := mofka.OpenPostMortem(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(segBytes)
	t.Logf("%d topics, %d segment bytes: the open allocated %.2f times them", len(b.Topics()), segBytes, ratio)
	if segBytes < 1<<20 {
		t.Fatalf("the data dir holds %d segment bytes, want the whole run's", segBytes)
	}
	if ratio > 1.75 {
		t.Errorf("OpenPostMortem allocates %.2f times the segment bytes it reads, budget 1.75", ratio)
	}
}
