package workloads

import (
	"path/filepath"
	"runtime"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/live"
	"taskprov/internal/mofka"
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
// the live aggregator stay within half again of what the typed, one-pass
// read path measured when it landed (0.022 and 4.80; the record-at-a-time
// open cost 5.0, the map-decoding replay 31.1).
func TestReadPathAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow run")
	}
	const openBudget, replayBudget = 0.033, 7.2
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
	t.Logf("%v events: %.3f allocations per event opened, %.3f per event replayed", events, open/events, replay/events)
	// Under the race detector the admission check's pooled JSON scanner
	// allocates about every other event; the open's own count is not visible.
	if open/events > openBudget && !raceEnabled {
		t.Errorf("OpenPostMortem costs %.3f allocations per event, budget %v", open/events, openBudget)
	}
	if replay/events > replayBudget {
		t.Errorf("ReplayBroker costs %.3f allocations per event, budget %v", replay/events, replayBudget)
	}
}
