package provenance

import (
	"reflect"
	"testing"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/sim"
)

// TestTasksTable: rows in TaskID order (executed tasks by winning start,
// then key; the rest by key), each key's first registration, its winner and
// its count, and deps as ascending IDs of the keys the table holds.
func TestTasksTable(t *testing.T) {
	b := mofka.NewStandaloneBroker()
	put := func(topic string, part int, metas ...[]byte) {
		t.Helper()
		tp, err := b.OpenOrCreateTopic(mofka.TopicConfig{Name: topic, Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		p, err := tp.Partition(part)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Append(metas, make([][]byte, len(metas))); err != nil {
			t.Fatal(err)
		}
	}
	meta := func(key string, graph int, deps ...dask.TaskKey) []byte {
		return AppendTaskMeta(nil, dask.TaskMeta{Key: dask.TaskKey(key), GraphID: graph, Deps: deps})
	}
	exec := func(key, worker string, start, stop int) []byte {
		return AppendExecution(nil, dask.TaskExecution{Key: dask.TaskKey(key), Worker: worker,
			Start: sim.Seconds(float64(start)), Stop: sim.Seconds(float64(stop))})
	}
	// Drain order: partition 0, then partition 1.
	put(TopicTaskMeta, 0,
		meta("sink", 1, "mid", "src", "staged"),
		meta("src", 1),
		meta("mid", 1, "src"),
		meta("never", 1, "sink"),
		meta("src", 2)) // a re-registration: the first one counts
	put(TopicTaskMeta, 1, meta("alone", 1))
	put(TopicExecutions, 0,
		exec("src", "w1", 1, 2),
		exec("mid", "w1", 3, 9), // stops last: wins though drained first
		exec("sink", "w1", 10, 11))
	put(TopicExecutions, 1,
		exec("mid", "w2", 2, 5),
		exec("sink", "w2", 10, 11), // ties the first: the first wins
		exec("orphan", "w2", 0, 1)) // executed, never registered

	tab, err := Tasks(NewRecords(b))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, k := range tab.Key {
		keys = append(keys, string(k))
	}
	if want := []string{"orphan", "src", "mid", "sink", "alone", "never"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("TaskID order %v, want %v", keys, want)
	}
	if tab.Executed != 4 {
		t.Fatalf("%d executed tasks, want 4", tab.Executed)
	}
	for id, k := range keys {
		if tab.ID[k] != id {
			t.Errorf("ID[%s] = %d, want %d", k, tab.ID[k], id)
		}
	}
	type row struct {
		meta, graph int
		winner      string
		runs        int
		deps        []string
	}
	want := map[string]row{
		"orphan": {-1, 0, "w2", 1, nil},
		"src":    {1, 1, "w1", 1, nil},
		"mid":    {2, 1, "w1", 2, []string{"src"}},
		"sink":   {0, 1, "w1", 2, []string{"src", "mid"}},
		"alone":  {5, 1, "", 0, nil},
		"never":  {3, 1, "", 0, []string{"sink"}},
	}
	for id, k := range keys {
		w := want[k]
		got := row{meta: tab.Meta[id], runs: tab.Runs[id]}
		if got.meta >= 0 {
			got.graph = tab.Metas[got.meta].GraphID
		}
		if j := tab.Exec[id]; j >= 0 {
			got.winner = tab.Execs[j].Worker
		}
		for _, d := range tab.Deps(id) {
			got.deps = append(got.deps, keys[d])
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s: %+v, want %+v", k, got, w)
		}
	}
}
