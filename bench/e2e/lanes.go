package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
	"taskprov/internal/workloads"
)

// The benchmark's declared run length and the floor below which a run's
// median stops meaning much. counts() are the cycle counts at the declared
// length; -seconds scales them.
const (
	declaredRunSeconds = 20
	minTimedCycles     = 3
)

// sessionStats is what one core.Run session is checked on. Every field is a
// count or a virtual time, so it repeats exactly for a seed.
type sessionStats struct {
	Events   map[string]int64 `json:"events"`
	Tasks    int64            `json:"tasks"`
	DXTOps   int64            `json:"dxt_ops"`
	Makespan float64          `json:"virtual_makespan_s"`
	// Steps is the simulation kernel's event count (not pinned in the
	// reference: a kernel optimisation may legitimately change it).
	Steps uint64 `json:"-"`
}

func (s sessionStats) totalEvents() int64 {
	var n int64
	for _, v := range s.Events {
		n += v
	}
	return n
}

func (s sessionStats) digest() string {
	topics := make([]string, 0, len(s.Events))
	for t := range s.Events {
		topics = append(topics, t)
	}
	sort.Strings(topics)
	var sb strings.Builder
	for _, t := range topics {
		fmt.Fprintf(&sb, "%s=%d ", t, s.Events[t])
	}
	fmt.Fprintf(&sb, "tasks=%d dxt=%d makespan=%v", s.Tasks, s.DXTOps, s.Makespan)
	return sb.String()
}

// probeWorkflow wraps a workflow to get at the run's kernel, which the
// session does not expose: Kernel.Steps() is the sim layer's work count.
type probeWorkflow struct {
	core.Workflow
	kernel *sim.Kernel
}

func (w *probeWorkflow) Run(p *sim.Proc, cl *dask.Client, env *core.Env) {
	w.kernel = env.Kernel
	w.Workflow.Run(p, cl, env)
}

// sessionSpec is one core.Run of a cycle. label names its span; configure
// edits the paper-default config (dir is a fresh data dir, used or not).
type sessionSpec struct {
	label     string
	workflow  string
	configure func(cfg *core.SessionConfig, dir string)
	// skipTopics are left out of the reference comparison (the cluster lane
	// adds its own health events to the warnings topic).
	skipTopics []string
	// inspect, when set, sees the artifacts before the session closes.
	inspect func(art *core.RunArtifacts) error
	// wantCrash marks a session chaos is meant to kill: the CrashError is
	// the expected outcome and the data dir is what it leaves behind.
	wantCrash bool
}

// runSession is one operation: NewSession, Execute, Close, each under its
// own span. It returns the data dir it wrote ("" if none).
func (h *harness) runSession(spec sessionSpec) (st sessionStats, dir string, err error) {
	wf, err := workloads.New(spec.workflow)
	if err != nil {
		return st, "", err
	}
	probe := &probeWorkflow{Workflow: wf}
	jobID := fmt.Sprintf("%s-%04d", spec.workflow, h.cfg.seed)
	cfg := workloads.DefaultSession(spec.workflow, jobID, h.cfg.seed)
	dir = h.newDir(spec.label)
	spec.configure(&cfg, dir)
	if cfg.MofkaDataDir == "" {
		dir = ""
	}

	var s *core.Session
	var art *core.RunArtifacts
	err = h.tr.do("core.newsession", func() (err error) { s, err = core.NewSession(cfg, probe, nil); return })
	if err != nil {
		return st, dir, err
	}
	err = h.tr.do("core.execute", func() (err error) { art, err = s.Execute(); return })
	var crash *core.CrashError
	switch {
	case spec.wantCrash && errors.As(err, &crash):
		err = nil
	case spec.wantCrash && err == nil:
		err = fmt.Errorf("chaos %q did not kill the session", cfg.ChaosSpec)
	case err == nil:
		st = statsOf(art)
		if probe.kernel != nil {
			st.Steps = probe.kernel.Steps()
		}
		if spec.inspect != nil {
			err = spec.inspect(art)
		}
	}
	if cerr := h.tr.do("core.close", s.Close); err == nil {
		err = cerr
	}
	return st, dir, err
}

// statsOf reads the checked numbers off a finished run: map lookups and a
// loop over the Darshan logs, cheap enough to sit inside the timed cycle.
func statsOf(art *core.RunArtifacts) sessionStats {
	st := sessionStats{Makespan: art.Meta.WallSeconds, DXTOps: art.TotalIOOps()}
	if art.Collector != nil {
		st.Events = make(map[string]int64)
		for _, t := range provenance.AllTopics() {
			st.Events[t] = art.Collector.EventCount(t)
		}
		st.Tasks = st.Events[provenance.TopicTaskMeta]
	}
	return st
}

// runSessions is the body of a run lane's cycle: every spec once, in order,
// one at a time. cut makes every session a calibrated segment of its own;
// sessions well under a second share one.
func (h *harness) runSessions(specs []sessionSpec, cut bool) (cycleStats, []sessionStats) {
	var cs cycleStats
	var all []sessionStats
	var digests []string
	for i, spec := range specs {
		spec := spec
		if cut && i > 0 {
			h.mark()
		}
		var st sessionStats
		h.op("session."+spec.label, func() error {
			var dir string
			var err error
			st, dir, err = h.runSession(spec)
			if dir != "" {
				cs.dirs = append(cs.dirs, dir)
			}
			return err
		})
		all = append(all, st)
		cs.events += st.totalEvents()
		cs.makespan += st.Makespan
		digests = append(digests, spec.label+": "+st.digest())
	}
	cs.digest = strings.Join(digests, "\n")
	return cs, all
}

func (h *harness) workflowSpecs(configure func(cfg *core.SessionConfig, dir string)) []sessionSpec {
	var specs []sessionSpec
	for _, wf := range h.workflows {
		specs = append(specs, sessionSpec{label: wf, workflow: wf, configure: configure})
	}
	return specs
}

func collectionOn(*core.SessionConfig, string) {}

func collectionOff(cfg *core.SessionConfig, _ string) { cfg.DisableCollection = true }

// simOnly: the paper's three workflows with collection off.
type simOnly struct {
	// on is what the same seed does with collection on. Its event count is
	// the lane's denominator, so that collect-mem − sim-only is collection's
	// marginal cost per event; its makespan must equal every cycle's.
	on cycleStats
}

func (l *simOnly) counts() (int, int) { return 1, 10 }

func (l *simOnly) setup(h *harness) error {
	specs := h.workflowSpecs(collectionOn)
	var stats []sessionStats
	l.on, stats = h.runSessions(specs, true)
	h.checkReference(specs, stats)
	if l.on.events == 0 {
		return fmt.Errorf("sim-only: the collection-on pass emitted no events")
	}
	return nil
}

func (l *simOnly) cycle(h *harness) cycleStats {
	cs, _ := h.runSessions(h.workflowSpecs(collectionOff), false)
	if cs.makespan != l.on.makespan {
		h.fail("collection perturbs virtual time: makespan %v with it on, %v off", l.on.makespan, cs.makespan)
	}
	cs.events = l.on.events
	return cs
}

// sessionLane is a workload whose cycle is a fixed list of instrumented
// sessions, each a calibrated segment, checked against the reference.
type sessionLane struct {
	timed int
	specs func(h *harness) []sessionSpec
}

func (l sessionLane) counts() (int, int) { return 1, l.timed }

func (sessionLane) setup(*harness) error { return nil }

func (l sessionLane) cycle(h *harness) cycleStats {
	specs := l.specs(h)
	cs, stats := h.runSessions(specs, true)
	h.checkReference(specs, stats)
	return cs
}

// collectMem: the default `taskprov run` — the three workflows, collection
// on, standalone in-memory broker, no live monitor.
var collectMem = sessionLane{timed: 4, specs: func(h *harness) []sessionSpec { return h.workflowSpecs(collectionOn) }}

// collectDurable: the write side of the on-disk format, as two spans.
var collectDurable = sessionLane{timed: 5, specs: func(*harness) []sessionSpec { return durableSpecs() }}

// walDir backs the session's broker with a WAL under dir, fsynced per batch.
func walDir(cfg *core.SessionConfig, dir string) {
	cfg.MofkaDataDir = dir
	cfg.MofkaSyncPolicy = "batch"
}

// clusterRF2 is walDir on a 3-broker cluster with two replicas per partition.
func clusterRF2(cfg *core.SessionConfig, dir string) {
	walDir(cfg, dir)
	cfg.ClusterBrokers = 3
	cfg.ClusterReplication = 2
}

func durableSpecs() []sessionSpec {
	return []sessionSpec{
		{label: "wal_live", workflow: "imageprocessing", configure: func(cfg *core.SessionConfig, dir string) {
			walDir(cfg, dir)
			cfg.LiveMonitor = true
		}},
		// The cluster adds its own health events to the warnings topic.
		{label: "cluster_rf2", workflow: "imageprocessing", configure: clusterRF2, skipTopics: []string{provenance.TopicWarnings}},
	}
}
