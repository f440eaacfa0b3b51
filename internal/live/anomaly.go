package live

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"taskprov/internal/dask"
	"taskprov/internal/provenance"
)

// Anomaly kinds raised by the online detectors.
const (
	AnomalyStraggler       = "straggler"
	AnomalyEventLoopStreak = "event_loop_streak"
	AnomalyIOCollapse      = "io_collapse"
)

// Anomaly is one online finding. Anomalies are emitted into the
// provenance.TopicAnomalies Mofka topic, making the monitor's conclusions
// part of the run's provenance record.
type Anomaly struct {
	Kind    string  `json:"kind"`
	Subject string  `json:"subject"` // task group or worker
	At      float64 `json:"at"`      // sim clock
	Value   float64 `json:"value"`   // z-score, streak length, or bandwidth ratio
	Limit   float64 `json:"limit"`   // the threshold that was crossed
	Detail  string  `json:"detail"`
}

// appendEvent appends the anomaly as the metadata of an anomalies-topic
// event: the bytes json.Marshal makes of a mofka.Metadata holding the six
// fields, keys in its sorted order. Like it, it panics on a value that is NaN
// or infinite.
func (a Anomaly) appendEvent(dst []byte) []byte {
	dst = append(dst, `{"at":`...)
	dst = provenance.AppendFloat(dst, a.At)
	dst = append(dst, `,"detail":`...)
	dst = provenance.AppendString(dst, a.Detail)
	dst = append(dst, `,"kind":`...)
	dst = provenance.AppendString(dst, a.Kind)
	dst = append(dst, `,"limit":`...)
	dst = provenance.AppendFloat(dst, a.Limit)
	dst = append(dst, `,"subject":`...)
	dst = provenance.AppendString(dst, a.Subject)
	dst = append(dst, `,"value":`...)
	dst = provenance.AppendFloat(dst, a.Value)
	return append(dst, '}')
}

// The online detectors' thresholds.
const (
	// stragglerMinSamples is how many durations a task group needs before
	// the robust z-score is trusted, and stragglerZ the MAD-based robust
	// z-score threshold (Iglewicz & Hoaglin's conventional cutoff).
	stragglerMinSamples = 16
	stragglerZ          = 3.5
	// streakLen flags a worker after this many consecutive
	// unresponsive-event-loop warnings no more than streakGapSeconds apart
	// (sim clock).
	streakLen        = 5
	streakGapSeconds = 30.0
	// collapseFraction flags a worker whose per-window I/O volume drops
	// below this fraction of its previous window, when that window moved at
	// least collapseMinBytes.
	collapseFraction = 0.25
	collapseMinBytes = 1 << 20
)

// stragglerAcc tracks one task group's duration distribution for the robust
// z-score. The median/MAD pair is refit every recomputeEvery inserts, a
// standard streaming compromise: the reference distribution trails the
// stream slightly. A fit costs O(n) moves and O(log n) probes, not a sort:
// the samples are kept sorted, the ones added since the last fit are merged
// in, the median is read by index, and the MAD — the median of |x − median|
// — is a k-th smallest over the two runs of deviations on either side of the
// median, each already in order (x ≤ median gives fl(median − x), which
// equals the fl(|x − median|) a sort of deviations would see because IEEE
// rounding is symmetric, and it grows as x falls; x ≥ median gives
// fl(x − median)). The result is the float64 a sort of the samples and then
// of their deviations gives.
type stragglerAcc struct {
	sorted   []float64 // the samples up to the last fit, ascending
	pending  []float64 // the samples since
	sinceFit int
	median   float64
	mad      float64
	fitted   bool
}

const (
	recomputeEvery = 32
	stragglerCap   = 1 << 14
	madConsistency = 1.4826 // MAD → σ for a normal distribution
	madEpsilon     = 1e-9
)

func (s *stragglerAcc) samples() int { return len(s.sorted) + len(s.pending) }

// add takes one duration and refits when due: the first time the group has
// minSamples, then every recomputeEvery inserts. A group past stragglerCap
// stops taking samples, and a fit with nothing new to merge is skipped.
func (s *stragglerAcc) add(d float64, minSamples int) {
	if s.samples() < stragglerCap {
		s.pending = append(s.pending, d)
	}
	s.sinceFit++
	if !s.fitted && s.samples() >= minSamples || s.sinceFit >= recomputeEvery {
		if len(s.pending) > 0 {
			s.fit()
		}
		s.sinceFit = 0
	}
}

func (s *stragglerAcc) fit() {
	sort.Float64s(s.pending)
	// Merge from the back, so the sorted run moves at most once.
	i, j := len(s.sorted)-1, len(s.pending)-1
	s.sorted = append(s.sorted, s.pending...)
	for k := len(s.sorted) - 1; j >= 0; k-- {
		if i >= 0 && s.sorted[i] > s.pending[j] {
			s.sorted[k] = s.sorted[i]
			i--
		} else {
			s.sorted[k] = s.pending[j]
			j--
		}
	}
	s.pending = s.pending[:0]

	v := s.sorted
	m := len(v) / 2
	med := v[m]
	below := func(j int) float64 { return med - v[m-1-j] } // j < m, ascending
	above := func(j int) float64 { return v[m+j] - med }   // j < len(v)-m, ascending
	// The MAD is the m-th smallest deviation (from 0), so the m+1 smallest
	// are the first a of below and the first m+1-a of above, for the least a
	// whose next below is no smaller than the last above taken.
	lo, hi := max(0, 2*m+1-len(v)), m
	a := lo + sort.Search(hi-lo, func(t int) bool {
		a := lo + t
		return below(a) >= above(m-a)
	})
	mad := above(m - a)
	if a > 0 {
		mad = math.Max(mad, below(a-1))
	}
	s.median, s.mad, s.fitted = med, mad, true
}

// StragglerDetector exposes the online MAD straggler model as a standalone
// handle the scheduler's speculation policy subscribes to (it satisfies
// dask.SpeculationAdvisor): completed task durations feed Observe, and
// Straggler asks whether a still-running task's elapsed time is already an
// outlier against its group's robust z-score — the same |d − median| /
// (1.4826·MAD + ε) ≥ stragglerZ test the monitor's anomaly lane applies to
// completed durations. Safe for concurrent use.
type StragglerDetector struct {
	mu     sync.Mutex
	groups map[string]*stragglerAcc
}

// NewStragglerDetector builds a detector with the monitor's thresholds.
func NewStragglerDetector() *StragglerDetector {
	return &StragglerDetector{groups: make(map[string]*stragglerAcc)}
}

// Observe feeds one completed duration into the group's distribution.
func (d *StragglerDetector) Observe(group string, seconds float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.groups[group]
	if s == nil {
		s = &stragglerAcc{}
		d.groups[group] = s
	}
	s.add(seconds, stragglerMinSamples)
}

// Straggler reports whether a task of the group that has already run for
// elapsedSeconds is a robust-z-score outlier. Elapsed time only grows, so a
// true verdict can never be retracted by the task finishing later.
func (d *StragglerDetector) Straggler(group string, elapsedSeconds float64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.groups[group]
	if s == nil || !s.fitted || s.samples() < stragglerMinSamples {
		return false
	}
	if elapsedSeconds <= s.median {
		return false
	}
	z := (elapsedSeconds - s.median) / (madConsistency*s.mad + madEpsilon)
	return z >= stragglerZ
}

// streakAcc tracks consecutive event-loop warnings per worker.
type streakAcc struct {
	len    int
	lastAt float64
}

// collapseAcc tracks a worker's per-window I/O volume for the bandwidth
// collapse check: when the window rolls over, the just-closed window is
// compared against the one before it.
type collapseAcc struct {
	epoch     int64
	cur, prev int64
	prevValid bool
}

// detectors holds all online anomaly state. Methods are called with the
// Aggregator's lock held and return the anomalies raised (if any).
type detectors struct {
	disabled bool

	stragglers map[string]*stragglerAcc
	streaks    map[string]*streakAcc
	collapse   map[string]*collapseAcc
}

func newDetectors(disabled bool) *detectors {
	return &detectors{
		disabled:   disabled,
		stragglers: make(map[string]*stragglerAcc),
		streaks:    make(map[string]*streakAcc),
		collapse:   make(map[string]*collapseAcc),
	}
}

// onDuration observes one task duration for its group and flags stragglers:
// |d − median| / (1.4826·MAD + ε) ≥ stragglerZ once the group has enough
// samples.
func (d *detectors) onDuration(group string, dur, at float64) []Anomaly {
	if d.disabled {
		return nil
	}
	s := d.stragglers[group]
	if s == nil {
		s = &stragglerAcc{}
		d.stragglers[group] = s
	}
	var out []Anomaly
	if s.fitted && s.samples() >= stragglerMinSamples {
		dev := dur - s.median
		if dev < 0 {
			dev = -dev
		}
		z := dev / (madConsistency*s.mad + madEpsilon)
		if z >= stragglerZ && dur > s.median {
			out = append(out, Anomaly{
				Kind: AnomalyStraggler, Subject: group, At: at,
				Value: z, Limit: stragglerZ,
				Detail: fmt.Sprintf("task took %.3fs vs group median %.3fs (robust z=%.1f)", dur, s.median, z),
			})
		}
	}
	s.add(dur, stragglerMinSamples)
	return out
}

// onWarning observes one runtime warning and flags unresponsive-event-loop
// streaks: streakLen consecutive warnings on one worker, no more than
// streakGapSeconds apart.
func (d *detectors) onWarning(kind, worker string, at float64) []Anomaly {
	if d.disabled || kind != string(dask.WarnEventLoop) {
		return nil
	}
	s := d.streaks[worker]
	if s == nil {
		s = &streakAcc{}
		d.streaks[worker] = s
	}
	if s.len > 0 && at-s.lastAt > streakGapSeconds {
		s.len = 0
	}
	s.len++
	s.lastAt = at
	if s.len == streakLen {
		an := Anomaly{
			Kind: AnomalyEventLoopStreak, Subject: worker, At: at,
			Value: float64(s.len), Limit: streakLen,
			Detail: fmt.Sprintf("%d consecutive unresponsive-event-loop warnings within %.0fs gaps", s.len, streakGapSeconds),
		}
		s.len = 0 // restart so sustained streaks re-fire per streakLen block
		return []Anomaly{an}
	}
	return nil
}

// onIO observes one I/O segment and flags bandwidth collapse: a worker whose
// just-closed window moved less than collapseFraction of the window before
// it (and that baseline was at least collapseMinBytes).
func (d *detectors) onIO(worker string, bytes int64, end float64) []Anomaly {
	if d.disabled || end < 0 {
		return nil
	}
	c := d.collapse[worker]
	if c == nil {
		c = &collapseAcc{epoch: int64(end / windowSeconds)}
		d.collapse[worker] = c
	}
	epoch := int64(end / windowSeconds)
	var out []Anomaly
	for c.epoch < epoch {
		// Close out c.epoch: compare against the window before it.
		if c.prevValid && c.prev >= collapseMinBytes {
			ratio := float64(c.cur) / float64(c.prev)
			if ratio < collapseFraction {
				out = append(out, Anomaly{
					Kind: AnomalyIOCollapse, Subject: worker,
					At:    float64(c.epoch+1) * windowSeconds,
					Value: ratio, Limit: collapseFraction,
					Detail: fmt.Sprintf("window I/O fell to %d B from %d B (%.0f%%)", c.cur, c.prev, ratio*100),
				})
			}
		}
		c.prev, c.prevValid = c.cur, true
		c.cur = 0
		c.epoch++
	}
	if epoch == c.epoch {
		c.cur += bytes
	}
	return out
}
