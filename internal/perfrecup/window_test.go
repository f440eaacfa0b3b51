package perfrecup

import (
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
)

// windowArt builds a minimal in-memory artifact holding exactly the given
// provenance events, for exercising Window's interval arithmetic directly.
func windowArt(t *testing.T, execs []dask.TaskExecution, transfers []dask.Transfer, warns []dask.Warning) *core.RunArtifacts {
	t.Helper()
	b := mofka.NewStandaloneBroker()
	push := func(topic string, metas [][]byte) {
		tp, err := b.OpenOrCreateTopic(mofka.TopicConfig{Name: topic, Partitions: 1})
		if err != nil {
			t.Fatal(err)
		}
		p := tp.NewProducer(mofka.ProducerOptions{})
		for _, m := range metas {
			if err := p.PushRaw(m, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var em, tm, wm [][]byte
	for _, e := range execs {
		em = append(em, provenance.AppendExecution(nil, e))
	}
	for _, tr := range transfers {
		tm = append(tm, provenance.AppendTransfer(nil, tr))
	}
	for _, w := range warns {
		wm = append(wm, provenance.AppendWarning(nil, w))
	}
	push(provenance.TopicExecutions, em)
	push(provenance.TopicTransfers, tm)
	push(provenance.TopicWarnings, wm)
	return &core.RunArtifacts{Broker: b}
}

func TestWindowEmpty(t *testing.T) {
	art := windowArt(t, nil, nil, nil)
	w, err := Window(art, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if w.TasksActive != 0 || w.ComputeSeconds != 0 || w.Transfers != 0 || len(w.Warnings) != 0 {
		t.Fatalf("empty artifact window = %+v", w)
	}
	if w.BusiestPrefix != "" {
		t.Fatalf("busiest prefix of empty window = %q", w.BusiestPrefix)
	}

	// A populated artifact but a window covering nothing, including the
	// degenerate zero-width window [5, 5).
	art = windowArt(t,
		[]dask.TaskExecution{{Key: "load-0001", Start: sim.Seconds(20), Stop: sim.Seconds(21)}},
		nil, nil)
	for _, iv := range [][2]float64{{0, 10}, {5, 5}} {
		w, err = Window(art, iv[0], iv[1])
		if err != nil {
			t.Fatal(err)
		}
		if w.TasksActive != 0 || w.TasksStarted != 0 || w.TasksFinished != 0 {
			t.Fatalf("window %v = %+v", iv, w)
		}
	}
}

func TestWindowSingleEvent(t *testing.T) {
	art := windowArt(t,
		[]dask.TaskExecution{{Key: "load-0001", Start: sim.Seconds(2), Stop: sim.Seconds(5)}},
		[]dask.Transfer{{Key: "load-0001", Bytes: 1 << 20, Start: sim.Seconds(5), Stop: sim.Seconds(6)}},
		[]dask.Warning{{Kind: dask.WarnEventLoop, At: sim.Seconds(3)}})
	w, err := Window(art, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if w.TasksActive != 1 || w.TasksStarted != 1 || w.TasksFinished != 1 {
		t.Fatalf("window = %+v", w)
	}
	if w.ComputeSeconds != 3 || w.BusiestPrefix != "load" {
		t.Fatalf("compute=%v busiest=%q", w.ComputeSeconds, w.BusiestPrefix)
	}
	if w.Transfers != 1 || w.TransferBytes != 1<<20 || w.CommSeconds != 1 {
		t.Fatalf("comm = %+v", w)
	}
	if w.Warnings[string(dask.WarnEventLoop)] != 1 {
		t.Fatalf("warnings = %v", w.Warnings)
	}

	// The same execution clipped by a partial window: active but neither
	// started nor finished inside it, compute clipped to the overlap.
	w, err = Window(art, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w.TasksActive != 1 || w.TasksStarted != 0 || w.TasksFinished != 0 || w.ComputeSeconds != 1 {
		t.Fatalf("clipped window = %+v", w)
	}
}

// TestWindowBoundaries pins the half-open [from, to) semantics for events
// landing exactly on the window edges.
func TestWindowBoundaries(t *testing.T) {
	art := windowArt(t,
		[]dask.TaskExecution{
			{Key: "starts-at-from-01", Start: sim.Seconds(10), Stop: sim.Seconds(12)},
			{Key: "stops-at-from-01", Start: sim.Seconds(8), Stop: sim.Seconds(10)},
			{Key: "stops-at-to-01", Start: sim.Seconds(18), Stop: sim.Seconds(20)},
			{Key: "starts-at-to-01", Start: sim.Seconds(20), Stop: sim.Seconds(22)},
		},
		[]dask.Transfer{
			{Key: "t-01", Bytes: 1, Start: sim.Seconds(9), Stop: sim.Seconds(10)},  // ends at from: excluded
			{Key: "t-02", Bytes: 2, Start: sim.Seconds(19), Stop: sim.Seconds(21)}, // straddles to: clipped
		},
		[]dask.Warning{
			{Kind: dask.WarnGC, At: sim.Seconds(10)}, // exactly from: counted
			{Kind: dask.WarnGC, At: sim.Seconds(20)}, // exactly to: not counted
		})
	w, err := Window(art, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	// starts-at-from overlaps and started in-window; stops-at-from has zero
	// overlap with [10,20); stops-at-to overlaps and its stop (20) is
	// outside the half-open window, so it did not "finish" here;
	// starts-at-to has zero overlap.
	if w.TasksActive != 2 {
		t.Fatalf("active = %d, want 2 (%+v)", w.TasksActive, w)
	}
	if w.TasksStarted != 2 || w.TasksFinished != 1 {
		t.Fatalf("started=%d finished=%d (%+v)", w.TasksStarted, w.TasksFinished, w)
	}
	if w.ComputeSeconds != 4 { // 2s from starts-at-from + 2s from stops-at-to
		t.Fatalf("compute = %v", w.ComputeSeconds)
	}
	if w.Transfers != 1 || w.TransferBytes != 2 || w.CommSeconds != 1 {
		t.Fatalf("comm = %+v", w)
	}
	if w.Warnings[string(dask.WarnGC)] != 1 {
		t.Fatalf("warnings = %v", w.Warnings)
	}
}
