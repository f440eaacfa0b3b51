package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	traceOut string
	smoke    bool
	tmp      string
	// calSample replaces the calibration kernel (tests run a synthetic
	// machine); nil means the real one.
	calSample func(executions int) float64
}

// cycleStats is what one closed-loop pass reports once the clock stopped.
type cycleStats struct {
	// events is the number of provenance events the cycle's sessions
	// appended to the bus (run lanes) or read back from the logs (analyze).
	events int64
	// makespan sums RunMetadata.WallSeconds over the cycle's sessions.
	makespan float64
	// digest holds everything the cycles of a run must agree on exactly.
	digest string
	// dirs are the data dirs the cycle wrote: measured into diskBytes and
	// removed once the clock has stopped. A lane that only reads dirs sets
	// diskBytes itself.
	dirs      []string
	diskBytes int64
}

// lane is one workload: setup builds its inputs (and, for analyze, the data
// dirs), cycle is one closed-loop pass.
type lane interface {
	setup(h *harness) error
	cycle(h *harness) cycleStats
	// counts gives the fixed warm-up and timed cycle counts at the
	// benchmark's declared run length.
	counts() (warm, timed int)
}

// segment is one calibrated stretch of a timed cycle. Cycles are cut into
// segments of about a second (a session, a group of analyses) with a
// calibrator sample at every cut: over many short segments the calibrator
// removes the machine's drift and the rest of the noise averages out, which
// one sample around a five-second cycle does not achieve (README, "Noise
// method").
type segment struct {
	wall, cpu           float64 // raw seconds
	calBefore, calAfter float64
	mallocs, bytes      uint64
}

func (s segment) host() float64   { return calibrated(s.wall, s.calBefore, s.calAfter) }
func (s segment) cpuCal() float64 { return calibrated(s.cpu, s.calBefore, s.calAfter) }

// reading is one timed cycle: its segments in order.
type reading struct {
	segs  []segment
	stats cycleStats
}

func (r reading) sum(f func(segment) float64) float64 {
	t := 0.0
	for _, s := range r.segs {
		t += f(s)
	}
	return t
}

func (r reading) raw() float64  { return r.sum(func(s segment) float64 { return s.wall }) }
func (r reading) host() float64 { return r.sum(segment.host) }

// typicalCycle is the benchmark's estimate of one cycle's cost from all of a
// run's readings: for each segment position the median over the cycles, then
// the sum over positions. With one segment per cycle it is the plain median
// over cycles; with several it uses every segment and still shrugs off an
// outlier anywhere.
func typicalCycle(readings []reading, f func(segment) float64) float64 {
	if len(readings) == 0 {
		return 0
	}
	positions := len(readings[0].segs)
	for _, r := range readings {
		if len(r.segs) != positions {
			// A cycle that lost an operation; it is already counted as
			// failed. Fall back to whole cycles.
			var sums []float64
			for _, r := range readings {
				sums = append(sums, r.sum(f))
			}
			return median(sums)
		}
	}
	total := 0.0
	for j := 0; j < positions; j++ {
		var at []float64
		for _, r := range readings {
			at = append(at, f(r.segs[j]))
		}
		total += median(at)
	}
	return total
}

// harness is the state of one invocation: the closed loop's single client.
type harness struct {
	cfg       config
	cal       *calibrator
	tr        *tracer
	tmp       string
	ref       *reference
	workflows []string

	attempted, failed int
	dirSeq            int
	// checking is set during warm-up (and smoke) cycles: the checks too
	// dear for the timed region run then.
	checking bool
	// lastCal is the calibrator sample the next segment or stage replay
	// starts from.
	lastCal float64

	// The running segment's clock, and every segment so far; clockOn is
	// false between cycles.
	clockOn bool
	t0      time.Time
	cpu0    float64
	mem0    runtime.MemStats
	segs    []segment
}

func newHarness(cfg config) (*harness, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(cfg.tmp, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	h := &harness{cfg: cfg, cal: newCalibrator(), tr: newTracer(), tmp: tmp, ref: ref}
	if cfg.calSample != nil {
		h.cal.sample = cfg.calSample
	}
	h.workflows = []string{"imageprocessing", "resnet152", "xgboost"}
	if cfg.smoke {
		h.workflows = h.workflows[:1]
	}
	return h, nil
}

func (h *harness) close() { _ = os.RemoveAll(h.tmp) } // scratch; nothing to report if it lingers

func (h *harness) removeDir(dir string) {
	if dir != "" {
		_ = os.RemoveAll(dir) // scratch
	}
}

// newDir names a fresh directory under the run's scratch root (not created:
// the session refuses a dir that already holds a log, and creates its own).
func (h *harness) newDir(label string) string {
	h.dirSeq++
	return filepath.Join(h.tmp, fmt.Sprintf("%03d-%s", h.dirSeq, label))
}

// op runs one operation — a core.Run session or an analysis call — inside a
// span, counting it as attempted and, on error, failed. The error is
// reported and swallowed so the rest of the cycle still runs; the run then
// ends with correct=false.
func (h *harness) op(span string, f func() error) {
	h.attempted++
	if err := h.tr.do(span, f); err != nil {
		h.fail("%s: %v", span, err)
	}
}

func (h *harness) fail(format string, args ...any) {
	h.failed++
	fmt.Fprintf(os.Stderr, "e2e: FAILED "+format+"\n", args...)
}

// startSegment starts the clock.
func (h *harness) startSegment() {
	runtime.ReadMemStats(&h.mem0)
	h.cpu0 = cpuSeconds()
	h.t0 = time.Now()
}

// mark is a segment boundary: lanes call it between the chunks of a cycle.
// It stops the clock, lets the calibrator run, and starts the next segment.
// While the clock is off it does nothing.
func (h *harness) mark() {
	if !h.clockOn {
		return
	}
	seg := segment{wall: time.Since(h.t0).Seconds(), cpu: cpuSeconds() - h.cpu0, calBefore: h.lastCal}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	seg.mallocs, seg.bytes = m.Mallocs-h.mem0.Mallocs, m.TotalAlloc-h.mem0.TotalAlloc
	_ = h.tr.do("harness.calibrate", func() error { h.lastCal = h.cal.take(); return nil })
	seg.calAfter = h.lastCal
	h.segs = append(h.segs, seg)
	h.startSegment()
}

// underClock runs f as calibrated segments (f cuts them with mark) and
// returns them.
func (h *harness) underClock(f func()) []segment {
	from := len(h.segs)
	h.clockOn = true
	h.startSegment()
	f()
	h.mark()
	h.clockOn = false
	return h.segs[from:len(h.segs):len(h.segs)]
}

// timeCycle runs one pass of the lane under the clock.
func (h *harness) timeCycle(l lane) reading {
	runtime.GC()
	var r reading
	_ = h.tr.do("cycle", func() error {
		r.segs = h.underClock(func() { r.stats = l.cycle(h) })
		return nil
	})
	for _, d := range r.stats.dirs {
		r.stats.diskBytes += dirBytes(d)
		h.removeDir(d)
	}
	return r
}

// cycleCounts scales the lane's fixed counts by the requested run length.
// The count is a function of the command line only — never of how fast the
// machine is — so a run is the same work on every commit.
func (h *harness) cycleCounts(l lane) (warm, timed int) {
	warm, timed = l.counts()
	if h.cfg.smoke {
		return 0, 1
	}
	if h.cfg.trace {
		// The traced run spends its time on the traced pass and the stage
		// replays; one untraced cycle is the baseline it is compared to.
		return warm, 1
	}
	timed = (timed*h.cfg.seconds + declaredRunSeconds/2) / declaredRunSeconds
	if timed < minTimedCycles {
		timed = minTimedCycles
	}
	return warm, timed
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
