package dask

import (
	"sort"

	"taskprov/internal/proxystore"
)

// Observers the in-package tests read scheduler and store state through, and
// the one seam they fail a task body with: no workload's task ever fails, so
// the retry and erred paths are driven from here.

// ProxyStore exposes the cluster's pass-by-reference store (nil when
// disabled).
func (c *Cluster) ProxyStore() *proxystore.Store {
	if c.proxy == nil {
		return nil
	}
	return c.proxy.store
}

// TaskState reports the scheduler-side state of a task ("" if unknown).
func (s *Scheduler) TaskState(k TaskKey) TaskState {
	ts, ok := s.tasks[k]
	if !ok {
		return ""
	}
	return ts.state
}

// Leaves returns tasks with no dependents, sorted. These are the graph's
// outputs, which stay in distributed memory until the client releases them.
func (g *Graph) Leaves() []TaskKey {
	hasDependent := make(map[TaskKey]bool)
	for _, t := range g.tasks {
		for _, d := range t.Deps {
			hasDependent[d] = true
		}
	}
	var out []TaskKey
	for k := range g.tasks {
		if !hasDependent[k] {
			out = append(out, k)
		}
	}
	sortKeys(out)
	return out
}

// HasInMemory reports whether the task's result is in distributed memory.
func (s *Scheduler) HasInMemory(k TaskKey) bool {
	ts, ok := s.tasks[k]
	return ok && ts.state == StateMemory
}

// Fail marks the task as failed with the given message; the body should
// return promptly afterwards. The scheduler will retry the task up to its
// MaxRetries before marking it erred.
func (ctx *TaskContext) Fail(msg string) { ctx.failure = msg }

func sortKeys(ks []TaskKey) {
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
}
