package provenance

import (
	"fmt"
	"sort"

	"taskprov/internal/dask"
)

// TaskTable is a run's tasks, one row per distinct key of the task-meta and
// task-executions topics, addressed by a dense TaskID that indexes every
// column. It is the one place that decides which execution of a key counts:
//
//	the winner is the execution with the largest Stop; on a tie, the first
//	one in Drain order wins.
//
// IDs come in one order: the executed tasks by (winning Start, key), then the
// tasks that never executed, by key. So the executed tasks are the IDs below
// Executed, and whatif.Model's task index is the TaskID.
//
// Keys borrow the broker's stored bytes, and Metas and Execs are the shared
// records the table was built from, under Records' contract: read-only, and
// valid while the broker's stored bytes are. A reader builds its table once
// per call; nothing caches one.
type TaskTable struct {
	Key []dask.TaskKey
	// ID maps a key to its TaskID.
	ID map[string]int
	// Meta is the index in Metas of the key's first registration, or -1.
	Meta []int
	// Exec is the index in Execs of the key's winning execution, or -1.
	Exec []int
	// Runs is how many executions the key has.
	Runs []int
	// Executed is how many tasks have an execution.
	Executed int

	Metas []dask.TaskMeta
	Execs []dask.TaskExecution

	// A task's deps, as the TaskIDs of the keys its first registration names
	// that the table holds, ascending: depIDs[depAt[id]:depAt[id+1]].
	depAt  []int
	depIDs []int
}

// Tasks builds r's task table from its task-meta and task-executions topics.
func Tasks(r *Records) (*TaskTable, error) {
	metas, err := r.TaskMeta()
	if err != nil {
		return nil, fmt.Errorf("task-meta: %w", err)
	}
	execs, err := r.Executions()
	if err != nil {
		return nil, fmt.Errorf("executions: %w", err)
	}
	n := len(metas)
	t := &TaskTable{
		Key: make([]dask.TaskKey, 0, n), ID: make(map[string]int, n),
		Meta: make([]int, 0, n), Exec: make([]int, 0, n), Runs: make([]int, 0, n),
		Metas: metas, Execs: execs,
	}
	row := func(k dask.TaskKey) int {
		id, ok := t.ID[string(k)]
		if !ok {
			id = len(t.Key)
			t.ID[string(k)] = id
			t.Key = append(t.Key, k)
			t.Meta, t.Exec, t.Runs = append(t.Meta, -1), append(t.Exec, -1), append(t.Runs, 0)
		}
		return id
	}
	deps := 0
	for i := range metas {
		if id := row(metas[i].Key); t.Meta[id] < 0 {
			t.Meta[id] = i
			deps += len(metas[i].Deps)
		}
	}
	for i := range execs {
		id := row(execs[i].Key)
		t.Runs[id]++
		if t.Runs[id] == 1 {
			t.Executed++
		}
		if t.Exec[id] < 0 || execs[i].Stop > execs[t.Exec[id]].Stop {
			t.Exec[id] = i
		}
	}
	sort.Sort((*idOrder)(t))
	for id, k := range t.Key {
		t.ID[string(k)] = id
	}
	t.depAt = make([]int, len(t.Key)+1)
	t.depIDs = make([]int, 0, deps)
	for id, m := range t.Meta {
		if m >= 0 {
			for _, d := range metas[m].Deps {
				if dep, ok := t.ID[string(d)]; ok {
					t.depIDs = append(t.depIDs, dep)
				}
			}
			sort.Ints(t.depIDs[t.depAt[id]:])
		}
		t.depAt[id+1] = len(t.depIDs)
	}
	return t, nil
}

// Deps returns task id's deps as TaskIDs, ascending.
func (t *TaskTable) Deps(id int) []int {
	return t.depIDs[t.depAt[id]:t.depAt[id+1]:t.depAt[id+1]]
}

// idOrder sorts a table's rows into TaskID order, moving every column.
type idOrder TaskTable

func (t *idOrder) Len() int { return len(t.Key) }

func (t *idOrder) Less(a, b int) bool {
	ea, eb := t.Exec[a], t.Exec[b]
	if (ea >= 0) != (eb >= 0) {
		return ea >= 0
	}
	if ea >= 0 && t.Execs[ea].Start != t.Execs[eb].Start {
		return t.Execs[ea].Start < t.Execs[eb].Start
	}
	return t.Key[a] < t.Key[b]
}

func (t *idOrder) Swap(a, b int) {
	t.Key[a], t.Key[b] = t.Key[b], t.Key[a]
	t.Meta[a], t.Meta[b] = t.Meta[b], t.Meta[a]
	t.Exec[a], t.Exec[b] = t.Exec[b], t.Exec[a]
	t.Runs[a], t.Runs[b] = t.Runs[b], t.Runs[a]
}
