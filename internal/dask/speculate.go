package dask

import (
	"fmt"
	"sort"

	"taskprov/internal/sim"
)

// SpeculationAdvisor is an external straggler detector the scheduler's
// speculation tick consults — the live pipeline's MAD-based anomaly detector
// implements it. Observe feeds one completed duration per prefix; Straggler
// asks whether a task of that prefix that has been running for
// elapsedSeconds should be hedged. When an advisor is installed it widens
// detection: a task is speculated when either the advisor or the built-in
// per-prefix quantile policy flags it.
type SpeculationAdvisor interface {
	Observe(prefix string, seconds float64)
	Straggler(prefix string, elapsedSeconds float64) bool
}

// specMinSamples is how many completed durations a prefix needs before the
// built-in quantile policy trusts its empirical distribution; below it the
// occupancy estimate (prefix mean or DefaultTaskDuration) stands in.
const specMinSamples = 8

// specSampleCap bounds the per-prefix duration history; when full, the older
// half is discarded (recent completions dominate under changing conditions).
const specSampleCap = 4096

// observeSpecDuration feeds one completed duration into the speculation
// policy's per-prefix history and the external advisor, if any.
func (s *Scheduler) observeSpecDuration(prefix string, dur sim.Time) {
	if s.specAdvisor != nil {
		s.specAdvisor.Observe(prefix, dur.Seconds())
	}
	if !s.c.cfg.Speculation.Enabled {
		return
	}
	samples := s.specSamples[prefix]
	if len(samples) >= specSampleCap {
		samples = append(samples[:0], samples[specSampleCap/2:]...)
	}
	s.specSamples[prefix] = append(samples, dur.Seconds())
}

// quantileAt returns the q-quantile of samples by linear interpolation.
func quantileAt(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	cp := append([]float64(nil), samples...)
	sort.Float64s(cp)
	pos := q * float64(len(cp)-1)
	lo := int(pos)
	if lo >= len(cp)-1 {
		return cp[len(cp)-1]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[lo+1]*frac
}

// stragglerThreshold is the elapsed-seconds bar beyond which a running task
// of the given prefix counts as straggling under the built-in policy:
// SlowFactor times the prefix's completed-duration quantile (or, with too few
// samples, the occupancy estimate).
func (s *Scheduler) stragglerThreshold(prefix string) float64 {
	cfg := s.c.cfg.Speculation
	if samples := s.specSamples[prefix]; len(samples) >= specMinSamples {
		return quantileAt(samples, cfg.Quantile) * cfg.SlowFactor
	}
	return s.estimate(prefix).Seconds() * cfg.SlowFactor
}

// isStraggler reports whether a task of the given prefix, running for
// elapsed, should be hedged.
func (s *Scheduler) isStraggler(prefix string, elapsed sim.Time) bool {
	if s.specAdvisor != nil && s.specAdvisor.Straggler(prefix, elapsed.Seconds()) {
		return true
	}
	return elapsed.Seconds() > s.stragglerThreshold(prefix)
}

// emitSpeculation fans a speculation decision out to the scheduler plugins,
// landing it on the speculation provenance topic.
func (s *Scheduler) emitSpeculation(ev SpeculationEvent) {
	for _, p := range s.c.schedPlugins {
		p.Speculation(ev)
	}
}

// speculationTick scans processing tasks for stragglers and hedges them,
// bounded by the in-flight cap and the per-run budget. Candidates are
// examined in priority order so the decision sequence reproduces per seed.
func (s *Scheduler) speculationTick() {
	cfg := s.c.cfg.Speculation
	if s.specLaunches >= cfg.Budget || s.specInFlight >= cfg.MaxConcurrent {
		return
	}
	now := s.c.kernel.Now()
	var cands []*schedTask
	for _, slab := range s.slabs {
		for i := range slab {
			ts := &slab[i]
			if ts.live != 1 || ts.stealing {
				continue
			}
			if !s.workers[ts.attempts[0].rank].connected {
				continue // eviction is about to recover it anyway
			}
			elapsed := now - ts.attempts[0].startedAt
			if elapsed < cfg.MinRuntime {
				continue
			}
			if !s.isStraggler(ts.spec.Prefix(), elapsed) {
				continue
			}
			cands = append(cands, ts)
		}
	}
	// The slabs hold tasks in priority order, and so does cands.
	for _, ts := range cands {
		if s.specInFlight >= cfg.MaxConcurrent || s.specLaunches >= cfg.Budget {
			return
		}
		s.speculate(ts, now)
	}
}

// speculate launches a duplicate attempt of a flagged straggler on a second
// worker: any allowed worker other than the primary's, by the placement
// objective. The task stays in StateProcessing; whichever attempt reports
// first wins. Nothing happens when no second worker is available or the
// launch is refused (the straggler sits on a dead, not yet evicted worker and
// a dependency died with it — eviction will reschedule the task).
func (s *Scheduler) speculate(ts *schedTask, now sim.Time) {
	primary := s.workers[ts.attempts[0].rank]
	wh := s.placeAmong(ts, func(wh *workerHandle) bool { return wh != primary && allowed(ts, wh) })
	if wh == nil || !s.launch(ts, wh) {
		return
	}
	s.specInFlight++
	s.specLaunches++
	s.emitSpeculation(SpeculationEvent{
		Kind: SpecLaunched, Key: ts.spec.Key,
		Primary: primary.w.addr, Duplicate: wh.w.addr,
		Detail: fmt.Sprintf("straggling for %s on %s", (now - ts.attempts[0].startedAt).String(), primary.w.addr),
		At:     now,
	})
}

// settleSpeculation resolves a hedged task in favor of the attempt on
// winnerRank: the losing attempt is ended, the win/cancel event pair is
// emitted, and a cancel message fences the loser worker-side. Called from
// handleFinished before the normal completion path ends the winner.
func (s *Scheduler) settleSpeculation(ts *schedTask, winnerRank int) {
	key := ts.spec.Key
	now := s.c.kernel.Now()
	primaryAddr := s.workers[ts.attempts[0].rank].w.addr
	dupAddr := s.workers[ts.attempts[1].rank].w.addr
	loser := ts.attempts[1-ts.slotOn(winnerRank)]
	s.endAttempt(ts, loser.rank)
	s.specInFlight--
	lw := s.workers[loser.rank]
	s.emitSpeculation(SpeculationEvent{
		Kind: SpecWon, Key: key, Primary: primaryAddr, Duplicate: dupAddr,
		Winner: s.workers[winnerRank].w.addr, At: now,
	})
	s.emitSpeculation(SpeculationEvent{
		Kind: SpecCancelled, Key: key, Primary: primaryAddr, Duplicate: dupAddr,
		Wasted: now - loser.startedAt,
		Detail: fmt.Sprintf("losing attempt on %s cancelled", lw.w.addr),
		At:     now,
	})
	if lw.connected && lw.w.alive {
		w := lw.w
		s.c.control(s.node, w.node, func() { w.handleCancel(key) })
	}
}
