package live

import (
	"testing"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
)

// critpathEvents builds a two-partition event stream for a diamond DAG
// (a -> b, a -> c, {b,c} -> d) with known durations: the heaviest chain is
// a(1s) -> c(4s) -> d(8s) = 13s.
func critpathEvents() (p0, p1 []mofka.Metadata) {
	meta := func(key string, deps ...dask.TaskKey) mofka.Metadata {
		return provenance.TaskMetaEvent(dask.TaskMeta{
			Key: dask.TaskKey(key), Prefix: key, GraphID: 1, Deps: deps,
		})
	}
	exec := func(key string, start, stop float64) mofka.Metadata {
		return provenance.ExecutionEvent(dask.TaskExecution{
			Key: dask.TaskKey(key), Worker: "w0", Hostname: "n0",
			Start: sim.Seconds(start), Stop: sim.Seconds(stop),
		})
	}
	p0 = []mofka.Metadata{
		meta("a"),
		meta("b", "a"),
		exec("a", 0, 1),
		exec("b", 1, 3),
	}
	p1 = []mofka.Metadata{
		meta("c", "a"),
		meta("d", "b", "c"),
		exec("c", 1, 5),
		exec("d", 5, 13),
	}
	return p0, p1
}

// TestCriticalPathLaneCommutes feeds the same two partitions in both merge
// orders (and a fine-grained interleaving) and requires the identical
// CriticalPathSeconds — the lane must be a pure function of the record set.
func TestCriticalPathLaneCommutes(t *testing.T) {
	p0, p1 := critpathEvents()

	run := func(feed func(a *Aggregator)) float64 {
		a := NewAggregator(AggregatorOptions{})
		feed(a)
		return a.Snapshot().CriticalPathSeconds
	}

	forward := run(func(a *Aggregator) {
		for _, m := range p0 {
			a.IngestEvent(topicOf(m), 0, m)
		}
		for _, m := range p1 {
			a.IngestEvent(topicOf(m), 1, m)
		}
	})
	backward := run(func(a *Aggregator) {
		for _, m := range p1 {
			a.IngestEvent(topicOf(m), 1, m)
		}
		for _, m := range p0 {
			a.IngestEvent(topicOf(m), 0, m)
		}
	})
	interleaved := run(func(a *Aggregator) {
		for i := 0; i < len(p0) || i < len(p1); i++ {
			if i < len(p1) {
				a.IngestEvent(topicOf(p1[i]), 1, p1[i])
			}
			if i < len(p0) {
				a.IngestEvent(topicOf(p0[i]), 0, p0[i])
			}
		}
	})

	if forward != 13 {
		t.Errorf("critical path lane = %g, want 13 (a->c->d)", forward)
	}
	if backward != forward || interleaved != forward {
		t.Errorf("lane not commutative: forward %g, backward %g, interleaved %g",
			forward, backward, interleaved)
	}
}

// topicOf routes a test event to its provenance topic by shape.
func topicOf(m mofka.Metadata) string {
	if _, ok := m["deps"]; ok {
		return provenance.TopicTaskMeta
	}
	return provenance.TopicExecutions
}

// TestCriticalPathLaneReexecution: a re-executed task (worker crash) must
// contribute its longest attempt regardless of which record arrives first.
func TestCriticalPathLaneReexecution(t *testing.T) {
	short := provenance.ExecutionEvent(dask.TaskExecution{
		Key: "x", Worker: "w0", Hostname: "n0", Start: sim.Seconds(0), Stop: sim.Seconds(1),
	})
	long := provenance.ExecutionEvent(dask.TaskExecution{
		Key: "x", Worker: "w1", Hostname: "n1", Start: sim.Seconds(2), Stop: sim.Seconds(5),
	})
	for _, order := range [][]mofka.Metadata{{short, long}, {long, short}} {
		a := NewAggregator(AggregatorOptions{})
		for i, m := range order {
			a.IngestEvent(provenance.TopicExecutions, i, m)
		}
		if got := a.Snapshot().CriticalPathSeconds; got != 3 {
			t.Errorf("re-execution lane = %g, want 3 (longest attempt)", got)
		}
	}
}

// TestCriticalPathLaneCap: past critPathTaskCap the lane stops growing but
// stays well-defined.
func TestCriticalPathLaneCap(t *testing.T) {
	a := NewAggregator(AggregatorOptions{critPathTaskCap: 2})
	for i, k := range []string{"a", "b", "c", "d"} {
		a.IngestEvent(provenance.TopicExecutions, 0, provenance.ExecutionEvent(dask.TaskExecution{
			Key: dask.TaskKey(k), Worker: "w0", Hostname: "n0",
			Start: sim.Seconds(float64(i)), Stop: sim.Seconds(float64(i) + 1),
		}))
	}
	if got := a.Snapshot().CriticalPathSeconds; got != 1 {
		t.Errorf("capped lane = %g, want 1 (independent 1s tasks, capped at 2)", got)
	}
}
