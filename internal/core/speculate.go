// Speculation wiring: the session side of the gray-failure tolerance layer.
// The scheduler's hedged-execution machinery lives in internal/dask
// (speculate.go) and the adaptive retry layer in internal/mochi/mercury
// (retry.go); this file closes both loops into the provenance stream — the
// live straggler detector feeds the scheduler (wired in NewSession), and the
// retry layer's hooks land on the speculation topic so every retry and budget
// denial is part of the run's record.
package core

import (
	"errors"
	"fmt"
	"time"

	"taskprov/internal/dask"
	"taskprov/internal/mochi/mercury"
)

// DefaultRetryBudget is the per-run Mercury retry allowance used when
// SessionConfig.RetryBudget is zero: enough to ride out a transient brownout,
// small enough that a dead destination drains it in seconds instead of
// storming for the whole run.
const DefaultRetryBudget = 64

// effectiveRetryBudgetN resolves SessionConfig.RetryBudget to the actual
// allowance (0 = default, negative = none).
func (s *Session) effectiveRetryBudgetN() int {
	n := s.cfg.RetryBudget
	if n == 0 {
		return DefaultRetryBudget
	}
	if n < 0 {
		return 0
	}
	return n
}

// retryBudgetSize reports the run's retry allowance for the metadata chart —
// zero when no caller was ever wrapped, so fault-free runs don't record a
// policy that never engaged.
func (s *Session) retryBudgetSize() int {
	if !s.retryEngaged {
		return 0
	}
	return s.effectiveRetryBudgetN()
}

// WrapCaller wraps a Mercury caller with the session's adaptive retry layer:
// per-destination EWMA-latency timeouts, capped exponential backoff with
// jitter seeded deterministically from the run seed and the destination
// address, and one retry budget shared by every caller the session wraps —
// so a melting cluster spends at most SessionConfig.RetryBudget extra calls
// run-wide, then degrades to clean errors. Every retry and every budget
// denial is recorded on the speculation provenance topic (SpecRetry /
// SpecBudgetExhausted), timestamped with virtual time.
//
// The recording hooks go through the session's collector, so — like every
// provenance plugin — wrapped callers must issue their calls from the
// simulation goroutine.
func (s *Session) WrapCaller(c mercury.Caller, addr string) *mercury.RetryCaller {
	if s.retryBudget == nil {
		s.retryBudget = mercury.NewRetryBudget(s.effectiveRetryBudgetN())
	}
	s.retryEngaged = true
	rc := mercury.NewRetryCaller(c, addr, mercury.RetryPolicy{Seed: s.cfg.Seed}, s.retryBudget)
	rc.OnRetry = func(addr, rpc string, attempt int, wait time.Duration, err error) {
		s.pushSpeculation(dask.SpeculationEvent{
			Kind:    dask.SpecRetry,
			Primary: addr,
			Attempt: attempt,
			Detail:  fmt.Sprintf("%s: backoff %v after %v", rpc, wait, err),
			At:      s.k.Now(),
		})
	}
	rc.OnExhausted = func(addr, rpc string, attempts int, err error) {
		if !errors.Is(err, mercury.ErrRetryBudgetExhausted) {
			// Per-call attempt exhaustion: the retries themselves are already
			// on the record, and the error surfaces to the caller.
			return
		}
		s.pushSpeculation(dask.SpeculationEvent{
			Kind:    dask.SpecBudgetExhausted,
			Primary: addr,
			Attempt: attempts,
			Detail:  fmt.Sprintf("%s: %v", rpc, err),
			At:      s.k.Now(),
		})
	}
	return rc
}

// RetryBudgetRemaining reports how much of the shared retry budget is left
// (the full allowance before any caller was wrapped).
func (s *Session) RetryBudgetRemaining() int {
	if s.retryBudget == nil {
		return s.effectiveRetryBudgetN()
	}
	return s.retryBudget.Remaining()
}

func (s *Session) pushSpeculation(ev dask.SpeculationEvent) {
	if s.collector == nil {
		return
	}
	s.collector.pushSpeculation(ev)
}
