package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

const rawHostMetric = "raw.host_us_per_event"

// runSet is what -repeat collects and -compare reads: for every workload,
// every end-to-end metric's value in each repetition.
type runSet struct {
	Workloads map[string]map[string][]float64 `json:"workloads"`
}

func readRunSet(path string) (runSet, error) {
	var rs runSet
	b, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(b, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// spread is the run-to-run spread of a metric's values: the quartile
// distance over the median from four values up, else the whole range over
// the smallest value.
func spread(xs []float64) float64 {
	switch {
	case len(xs) >= 4:
		return iqrSpread(xs)
	case len(xs) >= 2:
		return (slices.Max(xs) - slices.Min(xs)) / math.Abs(slices.Min(xs))
	}
	return 0
}

// runChild runs one workload in a child process, so that set-up time and
// peak RSS are a fresh process's, and parses its result line. It also picks
// the uncalibrated host time off the informational lines, so that -repeat
// can show what the calibrator bought.
func runChild(cfg config, workload string, seed uint64) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-tmp", cfg.tmp}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	for _, l := range lines {
		if f := strings.Fields(string(l)); len(f) >= 2 && f[0] == rawHostMetric {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				res.Metrics[rawHostMetric] = metricValue{Value: v, Unit: "us"}
			}
		}
	}
	return res, nil
}

// repeatAll runs every workload n times, interleaved, and judges each
// end-to-end metric's spread against its bound. It reports whether all are
// inside.
func repeatAll(w io.Writer, cfg config, n int, varySeed bool, out string) (bool, error) {
	rs := runSet{Workloads: make(map[string]map[string][]float64)}
	ok := true
	for rep := 0; rep < n; rep++ {
		seed := cfg.seed
		if varySeed {
			seed += uint64(rep)
		}
		for _, wl := range workloadTable {
			res, err := runChild(cfg, wl.name, seed)
			if err != nil {
				return false, err
			}
			if !res.Correct {
				ok = false
			}
			if rs.Workloads[wl.name] == nil {
				rs.Workloads[wl.name] = make(map[string][]float64)
			}
			for name, v := range res.Metrics {
				rs.Workloads[wl.name][name] = append(rs.Workloads[wl.name][name], v.Value)
			}
			fmt.Fprintf(w, "run %d/%d %-16s seed %d correct=%v attempted=%d failed=%d host_us_per_event=%.4f\n",
				rep+1, n, wl.name, seed, res.Correct, res.Attempted, res.Failed, res.Metrics["host_us_per_event"].Value)
		}
	}
	if !judge(w, rs) {
		ok = false
	}
	summarize(w, rs)
	if out != "" {
		b, err := json.MarshalIndent(rs, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// judge prints every end-to-end metric's spread against its bound, and what
// the calibrator bought, and reports whether every spread is inside.
func judge(w io.Writer, rs runSet) bool {
	ok := true
	fmt.Fprintf(w, "\n%-16s %-24s %12s %9s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "verdict")
	for _, wl := range workloadTable {
		for _, def := range endToEnd {
			xs := rs.Workloads[wl.name][def.name]
			sp := spread(xs)
			verdict := "ok"
			switch {
			case def.name == "setup_s" && len(xs) >= 4:
				verdict = "ok (spread exempt)"
			case sp > bounds[def.name]:
				verdict = "OUTSIDE"
				ok = false
			case sp > bounds[def.name]/3:
				verdict = "ok (above a third of the bound)"
			}
			fmt.Fprintf(w, "%-16s %-24s %12.6g %8.3f%% %6.2f%%  %s\n", wl.name, def.name, median(xs), 100*sp, 100*bounds[def.name], verdict)
		}
	}
	fmt.Fprintf(w, "\nwhat the calibrator bought (host time per event, calibrated vs raw):\n")
	for _, wl := range workloadTable {
		cal, raw := rs.Workloads[wl.name]["host_us_per_event"], rs.Workloads[wl.name][rawHostMetric]
		if len(cal) == 0 || len(raw) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-16s spread %6.3f%% vs %6.3f%%   max/min-1 %6.3f%% vs %6.3f%%\n",
			wl.name, 100*spread(cal), 100*spread(raw), 100*(slices.Max(cal)/slices.Min(cal)-1), 100*(slices.Max(raw)/slices.Min(raw)-1))
	}
	return ok
}

// verdict classifies one metric of one workload between two run sets. Every
// end-to-end metric is lower-is-better.
func verdict(old, new []float64, bound float64) (change, sp float64, v string) {
	change = median(new)/median(old) - 1
	sp = math.Max(spread(old), spread(new))
	switch {
	case sp > bound:
		v = "unresolved"
	case change > bound:
		v = "regressed"
	case -change > sp && change < 0:
		v = "improved"
	default:
		v = "unchanged"
	}
	return change, sp, v
}

// compareFiles prints, per workload row, each metric as improved, unchanged,
// unresolved (spread wider than the bound) or regressed, and reports whether
// anything regressed.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	old, err := readRunSet(oldPath)
	if err != nil {
		return false, err
	}
	new, err := readRunSet(newPath)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-16s %-24s %12s %12s %9s %9s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, wl := range workloadTable {
		for _, def := range endToEnd {
			o, n := old.Workloads[wl.name][def.name], new.Workloads[wl.name][def.name]
			if len(o) == 0 || len(n) == 0 {
				fmt.Fprintf(w, "%-16s %-24s missing from one side\n", wl.name, def.name)
				continue
			}
			change, sp, v := verdict(o, n, bounds[def.name])
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-16s %-24s %12.6g %12.6g %+8.2f%% %8.2f%% %6.2f%%  %s\n",
				wl.name, def.name, median(o), median(n), 100*change, 100*sp, 100*bounds[def.name], v)
		}
	}
	return regressed, nil
}

// summarize prints the headline the source paper left open: what collection
// costs per provenance event, as the difference between workloads that run
// the same sessions with the same seed.
func summarize(w io.Writer, rs runSet) {
	med := func(workload, metric string) float64 { return median(rs.Workloads[workload][metric]) }
	fmt.Fprintf(w, "\ncollection budget per provenance event (medians over the runs):\n")
	fmt.Fprintf(w, "  %-24s %12s %12s %12s\n", "metric", "sim-only", "collect-mem", "marginal")
	for _, m := range []string{"host_us_per_event", "cpu_us_per_event", "allocs_per_event", "alloc_bytes_per_event"} {
		off, on := med("sim-only", m), med("collect-mem", m)
		fmt.Fprintf(w, "  %-24s %12.4f %12.4f %12.4f\n", m, off, on, on-off)
	}
	fmt.Fprintf(w, "  collect-durable (imageprocessing, WAL+live then cluster RF2): %.4f us/event; analyze: %.4f us/event read back\n",
		med("collect-durable", "host_us_per_event"), med("analyze", "host_us_per_event"))
}

func summarizeFiles(w io.Writer, paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-summarize wants at least one -out file")
	}
	for _, p := range paths {
		rs, err := readRunSet(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s:\n", strings.TrimSpace(p))
		judge(w, rs)
		summarize(w, rs)
	}
	return nil
}
