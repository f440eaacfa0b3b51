package dask

import "taskprov/internal/proxystore"

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

// HasInMemory reports whether the task's result is in distributed memory.
func (s *Scheduler) HasInMemory(k TaskKey) bool {
	ts, ok := s.tasks[k]
	return ok && ts.state == StateMemory
}

// Fail marks the task as failed with the given message; the body should
// return promptly afterwards. The scheduler will retry the task up to its
// MaxRetries before marking it erred.
func (ctx *TaskContext) Fail(msg string) { ctx.failure = msg }
