package live

import (
	"fmt"
	"sort"
	"sync"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
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

// Event encodes the anomaly as Mofka event metadata.
func (a Anomaly) Event() mofka.Metadata {
	return mofka.Metadata{
		"kind": a.Kind, "subject": a.Subject, "at": a.At,
		"value": a.Value, "limit": a.Limit, "detail": a.Detail,
	}
}

// AnomalyConfig tunes the online detectors.
type AnomalyConfig struct {
	// Disable turns all detectors off.
	Disable bool

	// StragglerMinSamples is how many durations a task group needs before
	// the robust z-score is trusted. Default 16.
	StragglerMinSamples int
	// StragglerZ is the MAD-based robust z-score threshold. Default 3.5
	// (Iglewicz & Hoaglin's conventional cutoff).
	StragglerZ float64

	// StreakLen flags a worker after this many consecutive
	// unresponsive-event-loop warnings... Default 5.
	StreakLen int
	// StreakGapSeconds ...no more than this far apart (sim clock).
	// Default 30.
	StreakGapSeconds float64

	// CollapseFraction flags a worker whose per-window I/O volume drops
	// below this fraction of its previous window. Default 0.25.
	CollapseFraction float64
	// CollapseMinBytes is the minimum previous-window volume for the
	// collapse comparison to be meaningful. Default 1 MiB.
	CollapseMinBytes int64
}

func (c AnomalyConfig) withDefaults() AnomalyConfig {
	if c.StragglerMinSamples <= 0 {
		c.StragglerMinSamples = 16
	}
	if c.StragglerZ <= 0 {
		c.StragglerZ = 3.5
	}
	if c.StreakLen <= 0 {
		c.StreakLen = 5
	}
	if c.StreakGapSeconds <= 0 {
		c.StreakGapSeconds = 30
	}
	if c.CollapseFraction <= 0 {
		c.CollapseFraction = 0.25
	}
	if c.CollapseMinBytes <= 0 {
		c.CollapseMinBytes = 1 << 20
	}
	return c
}

// stragglerAcc tracks one task group's duration distribution for the robust
// z-score. The median/MAD pair is recomputed every recomputeEvery inserts
// (sorting a capped copy), a standard streaming compromise: the reference
// distribution trails the stream slightly but each insert stays O(1)
// amortized.
type stragglerAcc struct {
	samples  []float64
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

func (s *stragglerAcc) fit() {
	sorted := append([]float64(nil), s.samples...)
	sort.Float64s(sorted)
	s.median = sorted[len(sorted)/2]
	dev := make([]float64, len(sorted))
	for i, v := range sorted {
		d := v - s.median
		if d < 0 {
			d = -d
		}
		dev[i] = d
	}
	sort.Float64s(dev)
	s.mad = dev[len(dev)/2]
	s.fitted = true
	s.sinceFit = 0
}

// StragglerDetector exposes the online MAD straggler model as a standalone
// handle the scheduler's speculation policy subscribes to (it satisfies
// dask.SpeculationAdvisor): completed task durations feed Observe, and
// Straggler asks whether a still-running task's elapsed time is already an
// outlier against its group's robust z-score — the same |d − median| /
// (1.4826·MAD + ε) ≥ StragglerZ test the monitor's anomaly lane applies to
// completed durations. Safe for concurrent use.
type StragglerDetector struct {
	mu     sync.Mutex
	cfg    AnomalyConfig
	groups map[string]*stragglerAcc
}

// NewStragglerDetector builds a detector with the given thresholds (zero
// value = the monitor's defaults).
func NewStragglerDetector(cfg AnomalyConfig) *StragglerDetector {
	return &StragglerDetector{
		cfg:    cfg.withDefaults(),
		groups: make(map[string]*stragglerAcc),
	}
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
	if len(s.samples) < stragglerCap {
		s.samples = append(s.samples, seconds)
	}
	s.sinceFit++
	if !s.fitted && len(s.samples) >= d.cfg.StragglerMinSamples || s.sinceFit >= recomputeEvery {
		s.fit()
	}
}

// Straggler reports whether a task of the group that has already run for
// elapsedSeconds is a robust-z-score outlier. Elapsed time only grows, so a
// true verdict can never be retracted by the task finishing later.
func (d *StragglerDetector) Straggler(group string, elapsedSeconds float64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.groups[group]
	if s == nil || !s.fitted || len(s.samples) < d.cfg.StragglerMinSamples {
		return false
	}
	if elapsedSeconds <= s.median {
		return false
	}
	z := (elapsedSeconds - s.median) / (madConsistency*s.mad + madEpsilon)
	return z >= d.cfg.StragglerZ
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
	cfg         AnomalyConfig
	windowWidth float64

	stragglers map[string]*stragglerAcc
	streaks    map[string]*streakAcc
	collapse   map[string]*collapseAcc
}

func newDetectors(cfg AnomalyConfig, windowWidth float64) *detectors {
	return &detectors{
		cfg:         cfg.withDefaults(),
		windowWidth: windowWidth,
		stragglers:  make(map[string]*stragglerAcc),
		streaks:     make(map[string]*streakAcc),
		collapse:    make(map[string]*collapseAcc),
	}
}

// onDuration observes one task duration for its group and flags stragglers:
// |d − median| / (1.4826·MAD + ε) ≥ StragglerZ once the group has enough
// samples.
func (d *detectors) onDuration(group string, dur, at float64) []Anomaly {
	if d.cfg.Disable {
		return nil
	}
	s := d.stragglers[group]
	if s == nil {
		s = &stragglerAcc{}
		d.stragglers[group] = s
	}
	var out []Anomaly
	if s.fitted && len(s.samples) >= d.cfg.StragglerMinSamples {
		dev := dur - s.median
		if dev < 0 {
			dev = -dev
		}
		z := dev / (madConsistency*s.mad + madEpsilon)
		if z >= d.cfg.StragglerZ && dur > s.median {
			out = append(out, Anomaly{
				Kind: AnomalyStraggler, Subject: group, At: at,
				Value: z, Limit: d.cfg.StragglerZ,
				Detail: fmt.Sprintf("task took %.3fs vs group median %.3fs (robust z=%.1f)", dur, s.median, z),
			})
		}
	}
	if len(s.samples) < stragglerCap {
		s.samples = append(s.samples, dur)
	}
	s.sinceFit++
	if !s.fitted && len(s.samples) >= d.cfg.StragglerMinSamples || s.sinceFit >= recomputeEvery {
		s.fit()
	}
	return out
}

// onWarning observes one runtime warning and flags unresponsive-event-loop
// streaks: StreakLen consecutive warnings on one worker, no more than
// StreakGapSeconds apart.
func (d *detectors) onWarning(kind, worker string, at float64) []Anomaly {
	if d.cfg.Disable || kind != string(dask.WarnEventLoop) {
		return nil
	}
	s := d.streaks[worker]
	if s == nil {
		s = &streakAcc{}
		d.streaks[worker] = s
	}
	if s.len > 0 && at-s.lastAt > d.cfg.StreakGapSeconds {
		s.len = 0
	}
	s.len++
	s.lastAt = at
	if s.len == d.cfg.StreakLen {
		an := Anomaly{
			Kind: AnomalyEventLoopStreak, Subject: worker, At: at,
			Value: float64(s.len), Limit: float64(d.cfg.StreakLen),
			Detail: fmt.Sprintf("%d consecutive unresponsive-event-loop warnings within %.0fs gaps", s.len, d.cfg.StreakGapSeconds),
		}
		s.len = 0 // restart so sustained streaks re-fire per StreakLen block
		return []Anomaly{an}
	}
	return nil
}

// onIO observes one I/O segment and flags bandwidth collapse: a worker whose
// just-closed window moved less than CollapseFraction of the window before
// it (and that baseline was at least CollapseMinBytes).
func (d *detectors) onIO(worker string, bytes int64, end float64) []Anomaly {
	if d.cfg.Disable || end < 0 {
		return nil
	}
	c := d.collapse[worker]
	if c == nil {
		c = &collapseAcc{epoch: int64(end / d.windowWidth)}
		d.collapse[worker] = c
	}
	epoch := int64(end / d.windowWidth)
	var out []Anomaly
	for c.epoch < epoch {
		// Close out c.epoch: compare against the window before it.
		if c.prevValid && c.prev >= d.cfg.CollapseMinBytes {
			ratio := float64(c.cur) / float64(c.prev)
			if ratio < d.cfg.CollapseFraction {
				out = append(out, Anomaly{
					Kind: AnomalyIOCollapse, Subject: worker,
					At:    float64(c.epoch+1) * d.windowWidth,
					Value: ratio, Limit: d.cfg.CollapseFraction,
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
