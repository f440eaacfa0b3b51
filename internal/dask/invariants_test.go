package dask

import "testing"

// checkSchedulerInvariants audits the scheduler's task table at rest: every
// holder list ascending, unique and on connected workers; every in-memory
// task held somewhere; every waiting task waiting on exactly its dependencies
// not in memory; no negative dependent count or occupancy; no steal request
// left marked; and each worker's processing list exactly the tasks with a
// live attempt on it.
func checkSchedulerInvariants(t *testing.T, s *Scheduler) {
	t.Helper()
	onWorker := make([]map[*schedTask]bool, len(s.workers))
	for i := range onWorker {
		onWorker[i] = map[*schedTask]bool{}
	}
	for _, slab := range s.slabs {
		for i := range slab {
			ts := &slab[i]
			key := ts.spec.Key
			if s.tasks[key] != ts {
				t.Errorf("task %s: the key finds another task", key)
			}
			for j, r := range ts.whoHas {
				if j > 0 && r <= ts.whoHas[j-1] {
					t.Errorf("task %s: holders %v not ascending and unique", key, ts.whoHas)
				}
				if r < 0 || r >= len(s.workers) || !s.workers[r].connected {
					t.Errorf("task %s: holder %d is not a connected worker", key, r)
				}
			}
			if ts.state == StateMemory && len(ts.whoHas) == 0 {
				t.Errorf("task %s in memory with no holder", key)
			}
			marks := 0
			for j, dt := range ts.deps {
				if ts.waiting[j] {
					marks++
				}
				if dt != nil && ts.state == StateWaiting && ts.waiting[j] != (dt.state != StateMemory) {
					t.Errorf("task %s waiting: mark on dep %s is %v, dep is %s", key, dt.spec.Key, ts.waiting[j], dt.state)
				}
			}
			if marks != ts.nWaiting {
				t.Errorf("task %s: %d waiting marks, count %d", key, marks, ts.nWaiting)
			}
			if ts.pendingDependents < 0 {
				t.Errorf("task %s: pendingDependents %d", key, ts.pendingDependents)
			}
			if ts.stealing {
				t.Errorf("task %s: steal request still marked in flight", key)
			}
			for _, a := range ts.attempts[:ts.live] {
				if !s.workers[a.rank].connected {
					t.Errorf("task %s: live attempt on disconnected worker %d", key, a.rank)
				}
				onWorker[a.rank][ts] = true
			}
		}
	}
	for _, wh := range s.workers {
		if wh.occupancy < 0 {
			t.Errorf("worker %d: occupancy %v", wh.rank, wh.occupancy)
		}
		seen := map[*schedTask]bool{}
		for _, ts := range wh.processing {
			if seen[ts] {
				t.Errorf("worker %d: task %s listed twice as processing", wh.rank, ts.spec.Key)
			}
			seen[ts] = true
			if !onWorker[wh.rank][ts] {
				t.Errorf("worker %d: processing lists %s (%s), which has no live attempt there", wh.rank, ts.spec.Key, ts.state)
			}
		}
		for ts := range onWorker[wh.rank] {
			if !seen[ts] {
				t.Errorf("worker %d: task %s has a live attempt there but is not listed as processing", wh.rank, ts.spec.Key)
			}
		}
	}
}

// runs reports whether the task of key has a live attempt on the worker.
func (wh *workerHandle) runs(key TaskKey) bool {
	for _, ts := range wh.processing {
		if ts.spec.Key == key {
			return true
		}
	}
	return false
}
