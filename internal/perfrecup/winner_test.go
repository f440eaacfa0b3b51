package perfrecup

import (
	"path/filepath"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
	"taskprov/internal/resume"
	"taskprov/internal/sim"
	"taskprov/internal/whatif"
)

// winnerLog writes a durable data dir holding three registered tasks
// (a-1 → b-1 → c-1) and the executions of each partition of a two-partition
// task-executions topic. Drain delivers partition 0's events before
// partition 1's.
func winnerLog(t *testing.T, dir string, parts [2][]dask.TaskExecution) {
	t.Helper()
	b, err := mofka.NewDurableBroker(mofka.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendTo := func(topic string, part int, metas [][]byte) {
		t.Helper()
		partitions := 1
		if topic == provenance.TopicExecutions {
			partitions = 2
		}
		tp, err := b.OpenOrCreateTopic(mofka.TopicConfig{Name: topic, Partitions: partitions})
		if err != nil {
			t.Fatal(err)
		}
		if len(metas) == 0 {
			return
		}
		p, err := tp.Partition(part)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Append(metas, make([][]byte, len(metas))); err != nil {
			t.Fatal(err)
		}
	}
	for _, topic := range provenance.AllTopics() {
		appendTo(topic, 0, nil)
	}
	var metas [][]byte
	deps := map[dask.TaskKey][]dask.TaskKey{"b-1": {"a-1"}, "c-1": {"b-1"}}
	for _, k := range []dask.TaskKey{"a-1", "b-1", "c-1"} {
		metas = append(metas, provenance.AppendTaskMeta(nil, dask.TaskMeta{Key: k, Prefix: string(k[:1]), GraphID: 1, Deps: deps[k]}))
	}
	appendTo(provenance.TopicTaskMeta, 0, metas)
	for part, execs := range parts {
		var evs [][]byte
		for _, e := range execs {
			evs = append(evs, provenance.AppendExecution(nil, e))
		}
		appendTo(provenance.TopicExecutions, part, evs)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOneWinnerPerKey: b-1 ran twice, and Drain delivers the execution that
// stopped later first; c-1 ran twice with equal stops. Every post-mortem
// reader — whatif.Extract, resume.Reconstruct, BuildLineage and
// CompareSchedules — takes the execution with the larger Stop for b-1 and
// the first one in Drain order for c-1.
func TestOneWinnerPerKey(t *testing.T) {
	exec := func(key dask.TaskKey, worker string, start, stop float64, size int64) dask.TaskExecution {
		return dask.TaskExecution{Key: key, Worker: worker, Hostname: "node0", ThreadID: 1,
			Start: sim.Seconds(start), Stop: sim.Seconds(stop), OutputSize: size, GraphID: 1}
	}
	const w1, w2 = "tcp://10.0.0.1:4001", "tcp://10.0.0.2:4001"
	type want struct {
		worker string
		stop   float64
		size   int64
		runs   int
	}
	wants := map[string]want{"a-1": {w1, 2, 10, 1}, "b-1": {w2, 6, 20, 2}, "c-1": {w1, 8, 30, 2}}

	dirA := filepath.Join(t.TempDir(), "a")
	winnerLog(t, dirA, [2][]dask.TaskExecution{
		{exec("a-1", w1, 1, 2, 10), exec("b-1", w2, 3, 6, 20), exec("c-1", w1, 7, 8, 30)},
		{exec("b-1", w1, 3, 5, 21), exec("c-1", w2, 7, 8, 31)},
	})
	// B ran each key once, where A's winner ran.
	dirB := filepath.Join(t.TempDir(), "b")
	winnerLog(t, dirB, [2][]dask.TaskExecution{
		{exec("a-1", w1, 1, 2, 10), exec("b-1", w2, 3, 6, 20), exec("c-1", w1, 7, 8, 30)},
	})
	artA, err := LoadEventLog(dirA)
	if err != nil {
		t.Fatal(err)
	}
	artB, err := LoadEventLog(dirB)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("Extract", func(t *testing.T) {
		m, err := whatif.Extract(artA.WhatIfInput())
		if err != nil {
			t.Fatal(err)
		}
		for key, w := range wants {
			id, ok := m.Table.ID[key]
			if !ok || id >= len(m.Tasks) {
				t.Fatalf("%s is not a model task", key)
			}
			if got := m.Tasks[id]; got.Worker != w.worker || got.Stop != w.stop || got.OutputBytes != w.size {
				t.Errorf("%s: model task on %s stopping %v with %d bytes, want %s, %v, %d", key, got.Worker, got.Stop, got.OutputBytes, w.worker, w.stop, w.size)
			}
		}
	})
	t.Run("Reconstruct", func(t *testing.T) {
		st, err := resume.Reconstruct(dirA)
		if err != nil {
			t.Fatal(err)
		}
		for key, w := range wants {
			got := st.Frontier.Tasks[key]
			if got.StopSeconds != w.stop || got.Size != w.size || st.ExecCounts[dask.TaskKey(key)] != w.runs {
				t.Errorf("%s: frontier task stopping %v with %d bytes, %d runs; want %v, %d, %d", key, got.StopSeconds, got.Size, st.ExecCounts[dask.TaskKey(key)], w.stop, w.size, w.runs)
			}
		}
	})
	t.Run("Lineage", func(t *testing.T) {
		for key, w := range wants {
			l, err := BuildLineage(artA, key)
			if err != nil {
				t.Fatal(err)
			}
			if l.Worker != w.worker || l.Stop != w.stop || l.OutputSize != w.size {
				t.Errorf("%s: lineage on %s stopping %v with %d bytes, want %s, %v, %d", key, l.Worker, l.Stop, l.OutputSize, w.worker, w.stop, w.size)
			}
		}
	})
	t.Run("CompareSchedules", func(t *testing.T) {
		for _, pair := range [][2]*core.RunArtifacts{{artA, artB}, {artB, artA}} {
			c, err := CompareSchedules(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if c.CommonTasks != 3 || c.SameWorker != 1 {
				t.Errorf("%d common tasks, %.3f on the same worker; want 3 and all", c.CommonTasks, c.SameWorker)
			}
		}
	})
}
