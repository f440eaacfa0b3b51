package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"
)

var workloadTable = []struct {
	name string
	make func() lane
	why  string
}{
	{"sim-only", func() lane { return &simOnly{} },
		"Collection off: all time is the simulator and scheduler, so kernel work shows most and a collection-path change must show nothing."},
	{"collect-mem", func() lane { return collectMem },
		"The default taskprov run (in-memory broker): tracers, plugins, encode, producer and broker are about two thirds of its time; no disk."},
	{"collect-durable", func() lane { return collectDurable },
		"The write side of the on-disk format: WAL fsync with the live monitor beside it, then quorum appends to a 3-broker RF2 cluster."},
	{"analyze", func() lane { return &analyze{} },
		"The read side: load the data dirs and run every post-mortem analysis, with no simulation in the timed region."},
}

func laneFor(name string) (lane, error) {
	var names []string
	for _, w := range workloadTable {
		if w.name == name {
			return w.make(), nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runWorkload is one invocation: set-up, warm-up cycles, timed cycles and,
// with -trace 1, the traced pass and the stage replays. Every metric is
// printed to w by name and unit; the returned result is the last line.
func runWorkload(cfg config, start time.Time, w io.Writer) (result, error) {
	l, err := laneFor(cfg.workload)
	if err != nil {
		return result{}, err
	}
	h, err := newHarness(cfg)
	if err != nil {
		return result{}, err
	}
	defer h.close()

	// Set-up: inputs, data dirs, the reference pass, then the warm-up
	// cycles, which also carry the checks too dear for the timed region.
	h.lastCal = h.cal.take()
	var setupErr error
	h.underClock(func() { setupErr = l.setup(h) })
	if setupErr != nil {
		return result{}, setupErr
	}
	warm, timed := h.cycleCounts(l)
	h.checking = true
	var digest string
	agree := func(what string, r reading) {
		if digest == "" {
			digest = r.stats.digest
		} else if r.stats.digest != digest {
			h.fail("%s disagrees with the run's first cycle:\n  got  %s\n  want %s", what, r.stats.digest, digest)
		}
	}
	for i := 0; i < warm; i++ {
		agree(fmt.Sprintf("warm-up cycle %d", i), h.timeCycle(l))
	}
	h.checking = cfg.smoke
	// Set-up is one shot, so it has no median to lean on: the whole stretch
	// is scaled by what the calibrator saw across its segments (the set-up
	// sessions and the warm-up cycles).
	rawSetup := (time.Since(start) - h.cal.spent).Seconds()
	setup := reading{segs: h.segs}
	setupS := rawSetup * setup.host() / setup.raw()

	readings := make([]reading, timed)
	for i := range readings {
		readings[i] = h.timeCycle(l)
		agree(fmt.Sprintf("timed cycle %d", i), readings[i])
	}
	events := float64(readings[0].stats.events)
	if events == 0 {
		return result{}, fmt.Errorf("%s: cycles saw no provenance events", cfg.workload)
	}

	var hosts, raws []float64
	var mallocs, bytes uint64
	for _, r := range readings {
		hosts = append(hosts, r.host())
		raws = append(raws, r.raw())
		for _, seg := range r.segs {
			mallocs += seg.mallocs
			bytes += seg.bytes
		}
	}
	host := typicalCycle(readings, segment.host)
	perEvent := func(total uint64) float64 { return float64(total) / (events * float64(timed)) }
	// e2e is what the result line carries with -trace 0; own is what the
	// workload's own cycles add for -trace 1. Whichever is not reported is
	// printed as informational.
	e2e := map[string]float64{
		"setup_s":               setupS,
		"host_us_per_event":     host / events * 1e6,
		"cpu_us_per_event":      typicalCycle(readings, segment.cpuCal) / events * 1e6,
		"allocs_per_event":      perEvent(mallocs),
		"alloc_bytes_per_event": perEvent(bytes),
	}
	own := map[string]float64{
		"disk_bytes_per_event":  float64(readings[0].stats.diskBytes) / events,
		"virtual_makespan_s":    readings[0].stats.makespan,
		"raw.host_us_per_event": typicalCycle(readings, func(s segment) float64 { return s.wall }) / events * 1e6,
		"raw.setup_s":           rawSetup,
	}
	fmt.Fprintf(w, "workload %s seed %d: %d warm-up + %d timed cycles of %d calibrated segments, %.0f events per cycle\n",
		cfg.workload, cfg.seed, warm, timed, len(readings[0].segs), events)
	fmt.Fprintf(w, "host s per cycle (calibrated): typical %.4f median %.4f max %.4f n %d; raw median %.4f max %.4f\n",
		host, median(hosts), slices.Max(hosts), len(hosts), median(raws), slices.Max(raws))
	for i, r := range readings {
		fmt.Fprintf(w, "  cycle %2d raw %.4f calibrated %.4f; segments", i, r.raw(), r.host())
		for _, seg := range r.segs {
			fmt.Fprintf(w, " %.3f/%.4f", seg.wall, (seg.calBefore+seg.calAfter)/2)
		}
		fmt.Fprintln(w)
	}

	defs, reported, info := endToEnd, e2e, own
	if cfg.trace {
		defs, reported, info = perLayer, own, e2e
		h.tr.on = true
		h.tr.cycle = timed
		traced := h.timeCycle(l)
		agree("traced cycle", traced)
		own["trace.overhead_share"] = traced.host()/host - 1
		own["trace.coverage_share"] = h.tr.coverage(timed, "cycle")
		h.spanMetrics(own, l, timed, traced.host()/traced.raw())
		for k, v := range h.runReplays() {
			own[k] = v
		}
		h.tr.on = false
		if err := h.tr.writeChrome(cfg.traceOut); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(w, "trace: %d spans written to %s; traced cycle's spans by layer: %v\n", len(h.tr.spans), cfg.traceOut, h.tr.layerCounts(timed))
	} else {
		// VmHWM once the work is done: only the report is left to print.
		e2e["peak_rss_mb"] = peakRSSMB()
	}
	own["cal.kernel_ms"] = median(h.cal.samples) * 1e3
	own["cal.spread"] = slices.Max(h.cal.samples) / slices.Min(h.cal.samples)

	metrics, err := selectMetrics(defs, reported)
	if err != nil {
		return result{}, err
	}
	other, err := withUnits(info)
	if err != nil {
		return result{}, err
	}
	printMetrics(w, "informational", other)
	printMetrics(w, "metrics", metrics)
	return result{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: metrics}, nil
}

// spanMetrics reads the workload-specific per-layer metrics off the traced
// cycle's spans, scaled to nominal seconds by the cycle's calibration.
func (h *harness) spanMetrics(m map[string]float64, l lane, cycle int, scale float64) {
	total := func(name string) float64 { return scale * h.tr.total(cycle, name) }
	m["core.newsession_s"] = total("core.newsession")
	m["core.execute_s"] = total("core.execute")
	m["core.close_s"] = total("core.close")
	m["core.session_s.wal_live"] = total("session.wal_live")
	m["core.session_s.cluster_rf2"] = total("session.cluster_rf2")
	a, ok := l.(*analyze)
	if !ok {
		return
	}
	m["perfrecup.load_wal_s"] = total("perfrecup.load_wal")
	m["perfrecup.load_cluster_s"] = total("perfrecup.load_cluster")
	for _, v := range analyzeViews {
		m["perfrecup.view."+v+"_s"] = total("perfrecup.view." + v)
	}
	m["perfrecup.join_coverage"] = a.joinCoverage
	m["whatif.extract_s"] = total("whatif.extract")
	m["whatif.critpath_s"] = total("whatif.critpath")
	m["whatif.slack_s"] = total("whatif.slack")
	m["whatif.replay_s"] = total("whatif.replay")
	m["whatif.replay_error_share"] = a.replayError
	m["resume.reconstruct_s"] = total("resume.reconstruct")
	m["live.replay_datadir_s"] = total("live.replay_datadir")
}

func printMetrics(w io.Writer, title string, metrics map[string]metricValue) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}
