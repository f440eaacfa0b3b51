package whatif

import (
	"fmt"
	"math"
	"testing"
)

func TestParseScenario(t *testing.T) {
	on := true
	off := false
	cases := []struct {
		in   string
		want Scenario
	}{
		{"", Scenario{}},
		{"baseline", Scenario{}},
		{"workers=8", Scenario{Workers: 8}},
		{"workers=8 threads=4", Scenario{Workers: 8, ThreadsPerWorker: 4}},
		{"net=0.5,pfs=2", Scenario{NetBandwidthScale: 0.5, PFSScale: 2}},
		{"proxy=1048576", Scenario{ProxyThresholdBytes: 1 << 20}},
		{"proxy=off", Scenario{ProxyThresholdBytes: -1}},
		{"steal=on", Scenario{StealEnabled: &on}},
		{"steal=off", Scenario{StealEnabled: &off}},
	}
	for _, c := range cases {
		got, err := ParseScenario(c.in)
		if err != nil {
			t.Errorf("ParseScenario(%q): %v", c.in, err)
			continue
		}
		if got.Workers != c.want.Workers || got.ThreadsPerWorker != c.want.ThreadsPerWorker ||
			got.NetBandwidthScale != c.want.NetBandwidthScale || got.PFSScale != c.want.PFSScale ||
			got.ProxyThresholdBytes != c.want.ProxyThresholdBytes {
			t.Errorf("ParseScenario(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if (got.StealEnabled == nil) != (c.want.StealEnabled == nil) {
			t.Errorf("ParseScenario(%q) steal = %v, want %v", c.in, got.StealEnabled, c.want.StealEnabled)
		} else if got.StealEnabled != nil && *got.StealEnabled != *c.want.StealEnabled {
			t.Errorf("ParseScenario(%q) steal = %v, want %v", c.in, *got.StealEnabled, *c.want.StealEnabled)
		}
	}
	for _, bad := range []string{"workers=0", "foo=1", "net=-1", "pfs=x", "steal=maybe", "threads", "proxy=-2"} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) accepted", bad)
		}
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	off := false
	s := Scenario{Workers: 16, ThreadsPerWorker: 2, NetBandwidthScale: 0.25,
		PFSScale: 4, ProxyThresholdBytes: 4096, StealEnabled: &off}
	back, err := ParseScenario(s.String())
	if err != nil {
		t.Fatalf("%q: %v", s.String(), err)
	}
	if back.String() != s.String() {
		t.Fatalf("round trip %q != %q", back.String(), s.String())
	}
	if !(Scenario{}).IsBaseline() {
		t.Error("zero scenario not baseline")
	}
	if s.IsBaseline() {
		t.Error("perturbed scenario claims baseline")
	}
	if (Scenario{}).String() != "baseline" {
		t.Errorf("baseline renders as %q", (Scenario{}).String())
	}
}

func TestFitLatencyBandwidth(t *testing.T) {
	// Perfect alpha + bytes/beta data recovers the parameters.
	alpha, beta := 0.002, 1e9
	var xs, ys []float64
	for _, b := range []float64{1e3, 1e5, 1e6, 1e7, 1e8} {
		xs = append(xs, b)
		ys = append(ys, alpha+b/beta)
	}
	fit := fitLatencyBandwidth(xs, ys)
	if math.Abs(fit.Alpha-alpha) > 1e-9 {
		t.Errorf("alpha = %g, want %g", fit.Alpha, alpha)
	}
	if math.Abs(fit.Beta-beta)/beta > 1e-6 {
		t.Errorf("beta = %g, want %g", fit.Beta, beta)
	}
	if got := fit.Seconds(2e6); math.Abs(got-(alpha+2e6/beta)) > 1e-9 {
		t.Errorf("Seconds(2MB) = %g", got)
	}

	// Degenerate: single point, or no spread -> pure latency.
	one := fitLatencyBandwidth([]float64{100}, []float64{0.5})
	if one.Seconds(1<<30) != 0.5 {
		t.Errorf("single-sample fit should be constant, got %g", one.Seconds(1<<30))
	}
	flat := fitLatencyBandwidth([]float64{100, 100, 100}, []float64{0.1, 0.2, 0.3})
	if math.Abs(flat.Seconds(12345)-0.2) > 1e-12 {
		t.Errorf("no-spread fit = %g, want mean 0.2", flat.Seconds(12345))
	}
	if empty := fitLatencyBandwidth(nil, nil); empty.Seconds(1e9) != 0 {
		t.Errorf("empty fit should be zero")
	}
}

func TestLongestChainSeconds(t *testing.T) {
	dur := map[string]float64{"a": 1, "b": 2, "c": 4, "d": 8}
	deps := map[string][]string{"b": {"a"}, "c": {"a"}, "d": {"b", "c"}}
	if got := LongestChainSeconds(dur, deps); got != 13 {
		t.Errorf("chain = %g, want 13 (a->c->d)", got)
	}
	// Unknown deps contribute zero; cycles break instead of recursing.
	if got := LongestChainSeconds(map[string]float64{"x": 3}, map[string][]string{"x": {"ghost"}}); got != 3 {
		t.Errorf("unknown dep chain = %g, want 3", got)
	}
	cyc := map[string][]string{"p": {"q"}, "q": {"p"}}
	if got := LongestChainSeconds(map[string]float64{"p": 1, "q": 1}, cyc); got != 2 {
		t.Errorf("cycle chain = %g, want 2", got)
	}
	if got := LongestChainSeconds(nil, nil); got != 0 {
		t.Errorf("empty chain = %g", got)
	}
}

// syntheticModel builds a layered fan-out/fan-in DAG: `layers` layers of
// `width` 1-second tasks, each depending on its column neighbor one layer
// up, executed round-robin over `nw` workers x `threads` threads.
func syntheticModel(layers, width, nw, threads int) *Model {
	m := &Model{
		Workflow:         "synthetic",
		Index:            map[string]int{},
		Transfers:        map[EdgeKey]Edge{},
		WorkerHost:       map[string]string{},
		Nodes:            2,
		WorkersPerNode:   nw / 2,
		ThreadsPerWorker: threads,
		ProxyThreshold:   0,
	}
	for w := 0; w < nw; w++ {
		name := fmt.Sprintf("tcp://node%d:%d", w%2, 40000+w)
		m.Workers = append(m.Workers, name)
		m.WorkerHost[name] = fmt.Sprintf("node%d", w%2)
	}
	slotFree := make([]float64, nw*threads)
	for l := 0; l < layers; l++ {
		for c := 0; c < width; c++ {
			i := len(m.Tasks)
			slot := i % (nw * threads)
			start := slotFree[slot]
			var deps []int
			if l > 0 {
				d := (l-1)*width + c
				deps = append(deps, d)
				if fin := m.Tasks[d].Stop; fin > start {
					start = fin
				}
			}
			t := Task{
				Key:            fmt.Sprintf("t-%d-%d", l, c),
				Prefix:         "t",
				GraphID:        1,
				Deps:           deps,
				Worker:         m.Workers[slot/threads],
				Hostname:       m.WorkerHost[m.Workers[slot/threads]],
				ThreadID:       uint64(slot),
				Start:          start,
				Stop:           start + 1,
				OutputBytes:    1 << 20,
				ComputeSeconds: 0.9,
				IOSeconds:      0.1,
			}
			slotFree[slot] = t.Stop
			m.Index[t.Key] = i
			m.Tasks = append(m.Tasks, t)
		}
	}
	end := 0.0
	for i := range m.Tasks {
		if m.Tasks[i].Stop > end {
			end = m.Tasks[i].Stop
		}
	}
	m.EndSeconds = end
	m.MakespanSeconds = end
	m.Graphs = []GraphInfo{{ID: 1, SubmitAt: 0, DoneAt: end, Tasks: len(m.Tasks)}}
	return m
}

func TestSyntheticCriticalPathAndSlack(t *testing.T) {
	m := syntheticModel(10, 4, 2, 2)
	cp := m.CriticalPath()
	if cp.MakespanSeconds != m.MakespanSeconds {
		t.Fatalf("cp makespan %g != %g", cp.MakespanSeconds, m.MakespanSeconds)
	}
	if cp.Coverage < 0.999 || cp.Coverage > 1.001 {
		t.Fatalf("coverage %g, want 1.0 (categories %v)", cp.Coverage, cp.Categories)
	}
	slack := m.Slack()
	if len(slack) != len(m.Tasks) {
		t.Fatalf("slack has %d entries, want %d", len(slack), len(m.Tasks))
	}
	// A 10-layer chain of 1s tasks: chain tasks have zero structural slack.
	zero := 0
	for _, s := range slack {
		if s < 1e-9 {
			zero++
		}
	}
	if zero < 10 {
		t.Errorf("only %d zero-slack tasks, want >= 10", zero)
	}
	// Per-graph view covers the same span here (single graph).
	gcp := m.GraphCriticalPath(1)
	if math.Abs(gcp.MakespanSeconds-cp.MakespanSeconds) > 1e-9 {
		t.Errorf("graph cp %g != run cp %g", gcp.MakespanSeconds, cp.MakespanSeconds)
	}
}

func TestSyntheticReplayScenarios(t *testing.T) {
	m := syntheticModel(10, 8, 4, 2)
	base, err := m.Replay(Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base.DeltaFraction) > 0.02 {
		t.Fatalf("synthetic self-replay off by %.2f%%", 100*base.DeltaFraction)
	}
	// Fewer resources must not speed the run up.
	squeezed, err := m.Replay(Scenario{Workers: 1, ThreadsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	if squeezed.Mode != "replaced" {
		t.Errorf("topology change should force re-placement, got %q", squeezed.Mode)
	}
	if squeezed.PredictedMakespanSeconds < base.PredictedMakespanSeconds {
		t.Errorf("1x1 topology predicts %g < baseline %g",
			squeezed.PredictedMakespanSeconds, base.PredictedMakespanSeconds)
	}
	// The serial bound: 80 one-second tasks on one thread.
	if squeezed.PredictedMakespanSeconds < 79 {
		t.Errorf("1x1 topology predicts %g, want >= 79", squeezed.PredictedMakespanSeconds)
	}
	// A slower PFS must not speed the run up either (tasks carry IO time).
	slowIO, err := m.Replay(Scenario{PFSScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if slowIO.PredictedMakespanSeconds < base.PredictedMakespanSeconds {
		t.Errorf("pfs=0.5 predicts %g < baseline %g",
			slowIO.PredictedMakespanSeconds, base.PredictedMakespanSeconds)
	}
	// Stealing on a wider pool cannot be worse than the serial squeeze.
	stolen, err := m.Replay(Scenario{Workers: 8, ThreadsPerWorker: 2, StealEnabled: ptr(true)})
	if err != nil {
		t.Fatal(err)
	}
	if stolen.PredictedMakespanSeconds > squeezed.PredictedMakespanSeconds {
		t.Errorf("8x2+steal predicts %g > 1x1 %g", stolen.PredictedMakespanSeconds, squeezed.PredictedMakespanSeconds)
	}
}

func ptr(b bool) *bool { return &b }

func TestReplayEmptyModel(t *testing.T) {
	m := &Model{}
	if _, err := m.Replay(Scenario{}); err == nil {
		t.Fatal("empty model should fail")
	}
}

func TestExtractNilBroker(t *testing.T) {
	if _, err := Extract(Input{}); err == nil {
		t.Fatal("nil records should fail")
	}
}
