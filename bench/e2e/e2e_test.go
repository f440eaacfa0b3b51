package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }

// A machine that runs everything 1.7 times slower must report the nominal
// machine's seconds.
func TestCalibratorScalesSlowdownBackToNominal(t *testing.T) {
	const trueSeconds, slowdown = 2.5, 1.7
	c := newCalibrator()
	c.sample = func(int) float64 { return calNominalS * slowdown }
	before := c.take()
	raw := trueSeconds * slowdown
	after := c.take()
	if got := calibrated(raw, before, after); !near(got, trueSeconds, 1e-12) {
		t.Fatalf("calibrated(%v) = %v, want %v", raw, got, trueSeconds)
	}
	// Drift inside the cycle: the mean of the two samples is the factor.
	if got := calibrated(3, calNominalS, 2*calNominalS); !near(got, 2, 1e-12) {
		t.Fatalf("calibrated under drift = %v, want 2", got)
	}
	if len(c.samples) != 2 {
		t.Fatalf("calibrator kept %d samples, want 2", len(c.samples))
	}
}

func TestCalKernelIsTheDeclaredSize(t *testing.T) {
	s := calSample(1)
	if s < calNominalS/4 || s > calNominalS*8 {
		t.Fatalf("one kernel execution took %.3fs; calNominalS says %.3fs", s, calNominalS)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if got := iqrSpread(xs); !near(got, 1, 1e-12) {
		t.Errorf("iqrSpread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles of 4 = %v, %v; Python gives 1.25, 7", q1, q3)
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{name: "cycle", start: 0, end: 100 * ms, parent: -1, cycle: 3},
		{name: "core.execute", start: 5 * ms, end: 65 * ms, parent: 0, cycle: 3},
		{name: "whatif.extract", start: 50 * ms, end: 60 * ms, parent: 1, cycle: 3},
		{name: "core.close", start: 65 * ms, end: 95 * ms, parent: 0, cycle: 3},
		{name: "core.execute", start: 200 * ms, end: 300 * ms, parent: -1, cycle: -1},
	}}
	self := selfTimes(tr.spans)
	want := []time.Duration{10 * ms, 50 * ms, 10 * ms, 30 * ms, 100 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want[i])
		}
	}
	if got := tr.coverage(3, "cycle"); !near(got, 0.9, 1e-12) {
		t.Errorf("coverage = %v, want 0.9", got)
	}
	if got := tr.total(3, "core.execute"); !near(got, 0.060, 1e-12) {
		t.Errorf("total of the cycle's core.execute = %v, want 0.060 (the replay's span is another cycle)", got)
	}
	if got := tr.layerCounts(3); got["core"] != 2 || got["whatif"] != 1 || got["cycle"] != 1 || len(got) != 3 {
		t.Errorf("layerCounts = %v", got)
	}
}

func TestTracerNestsSpansAndWritesChromeJSON(t *testing.T) {
	tr := newTracer()
	_ = tr.do("off", func() error { return nil })
	if len(tr.spans) != 0 {
		t.Fatal("a switched-off tracer recorded a span")
	}
	tr.on = true
	_ = tr.do("outer.a", func() error { return tr.do("inner.b", func() error { return nil }) })
	if len(tr.spans) != 2 || tr.spans[1].parent != 0 || tr.spans[0].parent != -1 {
		t.Fatalf("spans %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Cat != "inner" || doc.TraceEvents[0].Ph != "X" {
		t.Fatalf("trace events %+v", doc.TraceEvents)
	}
}

func TestVerdicts(t *testing.T) {
	flat := []float64{100, 100.5, 99.5, 100.2, 99.8, 100.1}
	cases := []struct {
		name     string
		old, new []float64
		want     string
	}{
		{"same", flat, flat, "unchanged"},
		{"worse by more than the bound", flat, scale(flat, 1.2), "regressed"},
		{"better by more than the spread", flat, scale(flat, 0.9), "improved"},
		{"too noisy to tell", []float64{80, 100, 120, 90, 110, 130}, flat, "unresolved"},
	}
	for _, c := range cases {
		if _, _, got := verdict(c.old, c.new, 0.08); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// BENCHMARK.json at the root of the repo is generated from the metric
// tables; this fails when one was edited without the other.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from `e2e -print-benchmark-json`; regenerate it")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s is defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, d := range endToEnd {
		if b := bounds[d.name]; b <= 0 || b > 0.25 {
			t.Errorf("bound of %s is %v", d.name, b)
		}
	}
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metricValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{
		workload: workload, seed: 1, seconds: declaredRunSeconds, smoke: true, trace: trace,
		tmp: dir, traceOut: filepath.Join(dir, "trace.json"),
		// The real kernel would be most of a smoke run's time.
		calSample: func(int) float64 { return calNominalS },
	}
}

// A -smoke run (one cycle, imageprocessing only) of every workload must end
// correct and print exactly the declared end-to-end metrics, none of them 0.
func TestSmokeRunOfEveryWorkload(t *testing.T) {
	for _, w := range workloadTable {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			res, err := runWorkload(smokeConfig(t, w.name, false), time.Now(), &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			if got, want := keys(res.Metrics), names(endToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("metrics %v, want %v", got, want)
			}
			for name, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", name, v.Value)
				}
			}
			var back result
			if err := json.Unmarshal([]byte(res.line()), &back); err != nil {
				t.Fatalf("result line does not parse: %v", err)
			}
		})
	}
}

// The traced run prints exactly the declared per-layer metrics. sim-only
// must not have entered the collection layers; analyze must not have run a
// session in its cycle; both traces must cover the cycle.
func TestTracedSmokeRun(t *testing.T) {
	for _, workload := range []string{"sim-only", "analyze"} {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig(t, workload, true)
			res, err := runWorkload(cfg, time.Now(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("failed=%d", res.Failed)
			}
			if got, want := keys(res.Metrics), names(perLayer); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("metrics %v, want %v", got, want)
			}
			val := func(name string) float64 { return res.Metrics[name].Value }
			if c := val("trace.coverage_share"); c < 0.95 {
				t.Errorf("spans cover %.3f of the traced cycle, want >= 0.95", c)
			}
			for _, name := range []string{"mofka.push_ns_per_event", "wal.replay_ns_per_event", "live.ingest_ns_per_event",
				"provenance.encode_ns_per_event", "sim.kernel_ns_per_step", "budget.collect_marginal_us_per_event"} {
				if val(name) <= 0 {
					t.Errorf("stage replay %s = %v", name, val(name))
				}
			}
			switch workload {
			case "sim-only":
				if val("perfrecup.load_wal_s") != 0 || val("live.replay_datadir_s") != 0 {
					t.Error("sim-only reports time in perfrecup or live")
				}
				if val("core.execute_s") <= 0 {
					t.Error("sim-only reports no core.execute span")
				}
			case "analyze":
				if val("core.execute_s") != 0 {
					t.Error("analyze ran a session inside its cycle")
				}
				if val("perfrecup.view.phases_s") <= 0 || val("whatif.extract_s") <= 0 || val("resume.reconstruct_s") <= 0 {
					t.Error("analyze is missing spans of its cycle")
				}
				if val("perfrecup.join_coverage") <= 0 {
					t.Error("no DXT segment was joined to a task")
				}
			}
			if _, err := os.Stat(cfg.traceOut); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

// A reference mismatch is a failed operation, not a warning.
func TestReferenceMismatchFails(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range referenceSeeds {
		for _, wf := range []string{"imageprocessing", "resnet152", "xgboost"} {
			if e, ok := ref.entry(seed, wf); !ok || e.Tasks == 0 || e.Makespan == 0 || len(e.Events) == 0 {
				t.Errorf("reference has no usable entry for seed %d %s", seed, wf)
			}
		}
	}
	h := &harness{cfg: config{seed: 1}, ref: ref}
	want, _ := ref.entry(1, "imageprocessing")
	specs := []sessionSpec{{label: "imageprocessing", workflow: "imageprocessing"}}
	h.checkReference(specs, []sessionStats{want.sessionStats})
	if h.failed != 0 {
		t.Fatalf("the reference disagrees with itself")
	}
	off := want.sessionStats
	off.Makespan += 1e-9
	h.checkReference(specs, []sessionStats{off})
	if h.failed != 1 {
		t.Fatalf("a nanosecond of virtual makespan went unnoticed (failed=%d)", h.failed)
	}
}
