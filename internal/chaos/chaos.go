// Package chaos is the deterministic fault-injection subsystem: a chaos plan
// parsed from a compact spec string schedules worker crashes and restarts at
// simulated times, and broker append (WAL/disk) failures through the
// broker's fault hook.
//
// Determinism is the design center. Worker kills fire at exact virtual
// times on the simulation kernel; append faults are count-based (fault the
// Nth matching call), so the same seed and spec reproduce the
// identical failure — and recovery — event sequence on every run.
//
// Spec grammar (statements separated by ';', fields by whitespace):
//
//	kill worker=N at=DUR [restart=DUR]
//	broker node=N at=DUR [restart=DUR]
//	scheduler at=DUR | at-task=KEY
//	wal [topic=S] [partition=N] [after=N] [count=N]
//	slow worker=N at=DUR factor=F [until=DUR]
//	net src=N dst=M factor=F [at=DUR] [until=DUR]
//
// DUR is a Go duration ("30s", "1.5m"). "kill" crashes worker N at virtual
// time at, optionally booting a fresh process restart later. "broker" does
// the same to broker replica N of a sharded Mofka cluster
// (internal/mofka/cluster): the node is marked dead, its partitions fail
// over to surviving replicas, and an optional restart rejoins it with
// catch-up. "scheduler" SIGKILLs the whole coordinator
// process (scheduler, client, and every worker die together, taking
// unflushed producer batches with them) either at a virtual time or the
// moment the named task's execution completes; the run can afterwards be
// continued from its data dir with `taskprov resume`. "wal" fails batch
// appends on matching topic / partition (omitted matchers accept anything):
// after skips that many matching appends first, and count bounds how many
// are failed (default 1).
//
// The last two directives inject gray failures — brownouts rather than
// crashes. "slow" dilates worker N's task compute and I/O service times by
// factor starting at virtual time at, optionally restoring full speed until
// after onset: the worker stays alive, heartbeats, and accepts work, it is
// just slow, which is the failure mode kills cannot express. "net" degrades
// the directed platform link from node src to node dst by factor (latency
// and effective bytes both inflate), optionally starting at at (default:
// from launch) and healing until after onset.
//
// Example: kill 1 of 8 workers two virtual minutes in, restarting it a
// minute later, while the warnings topic's first partition rejects 3
// appends:
//
//	kill worker=3 at=2m restart=1m; wal topic=warnings partition=0 after=10 count=3
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"taskprov/internal/sim"
)

// Kill crashes a worker at a virtual time, optionally restarting it.
type Kill struct {
	Worker  int
	At      time.Duration
	Restart time.Duration // delay after the kill; 0 = never restart
}

// BrokerKill crashes one broker replica of a Mofka cluster at a virtual
// time, optionally restarting (rejoin + catch-up) it later.
type BrokerKill struct {
	Node    int
	At      time.Duration
	Restart time.Duration // delay after the kill; 0 = never restart
}

// WALFault fails broker batch appends for matching partitions.
type WALFault struct {
	Topic     string // "" matches any topic
	Partition int    // -1 matches any partition
	After     int
	Count     int
}

// SchedulerKill crashes the whole coordinator process — scheduler, client,
// and workers die together, mid-run, like kill -9 of the session. Exactly
// one trigger is set: a virtual time (At) or the completion of a named
// task's execution (AtTask).
type SchedulerKill struct {
	At     time.Duration
	AtTask string
}

// Slow dilates one worker's task compute and I/O service times by Factor
// starting at a virtual time — a brownout, not a crash. Until (measured from
// onset, like Kill.Restart) restores full speed; 0 leaves the worker
// degraded for the rest of the run.
type Slow struct {
	Worker int
	At     time.Duration
	Factor float64
	Until  time.Duration
}

// NetFault degrades the directed platform link from node Src to node Dst by
// Factor: latency and effective transferred bytes both inflate. At delays
// the onset (0 = degraded from launch); Until (from onset) heals the link.
type NetFault struct {
	Src    int
	Dst    int
	Factor float64
	At     time.Duration
	Until  time.Duration
}

// Plan is a parsed chaos specification.
type Plan struct {
	Kills      []Kill
	Brokers    []BrokerKill
	Schedulers []SchedulerKill
	WALs       []WALFault
	Slows      []Slow
	Nets       []NetFault

	// Spec is the original specification string, kept for provenance
	// metadata so a degraded run records what was injected into it.
	Spec string
}

// directives is the parser dispatch table: one entry per grammar directive.
// The unknown-directive error lists its keys, so adding a directive here is
// the single step that both parses it and advertises it — the list cannot
// drift out of sync with the grammar.
var directives = map[string]func(kv fieldSet, p *Plan) error{
	"kill":      parseKill,
	"broker":    parseBroker,
	"scheduler": parseScheduler,
	"wal":       parseWAL,
	"slow":      parseSlow,
	"net":       parseNet,
}

// directiveNames renders the dispatch table's keys as "a, b, ..., or z" for
// the unknown-directive error.
func directiveNames() string {
	names := make([]string, 0, len(directives))
	for name := range directives {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
}

// Parse parses a chaos spec. An empty or whitespace-only spec yields an
// empty plan.
func Parse(spec string) (*Plan, error) {
	p := &Plan{Spec: strings.TrimSpace(spec)}
	for _, stmt := range strings.Split(spec, ";") {
		fields := strings.Fields(stmt)
		if len(fields) == 0 {
			continue
		}
		parse, ok := directives[fields[0]]
		if !ok {
			return nil, fmt.Errorf("chaos: unknown directive %q (want %s)", fields[0], directiveNames())
		}
		kv, err := parseFields(fields[1:])
		if err != nil {
			return nil, fmt.Errorf("chaos: %q: %w", strings.TrimSpace(stmt), err)
		}
		if err := parse(kv, p); err != nil {
			return nil, err
		}
		if err := kv.unused(); err != nil {
			return nil, fmt.Errorf("chaos: %s statement: %w", fields[0], err)
		}
	}
	return p, nil
}

func parseKill(kv fieldSet, p *Plan) error {
	k := Kill{Worker: -1}
	if err := kv.intField("worker", &k.Worker); err != nil {
		return err
	}
	if err := kv.durField("at", &k.At); err != nil {
		return err
	}
	if err := kv.durField("restart", &k.Restart); err != nil {
		return err
	}
	if k.Worker < 0 {
		return fmt.Errorf("chaos: kill requires worker=N")
	}
	if k.At <= 0 {
		return fmt.Errorf("chaos: kill requires at=DURATION")
	}
	p.Kills = append(p.Kills, k)
	return nil
}

func parseBroker(kv fieldSet, p *Plan) error {
	b := BrokerKill{Node: -1}
	if err := kv.intField("node", &b.Node); err != nil {
		return err
	}
	if err := kv.durField("at", &b.At); err != nil {
		return err
	}
	if err := kv.durField("restart", &b.Restart); err != nil {
		return err
	}
	if b.Node < 0 {
		return fmt.Errorf("chaos: broker requires node=N")
	}
	if b.At <= 0 {
		return fmt.Errorf("chaos: broker requires at=DURATION")
	}
	p.Brokers = append(p.Brokers, b)
	return nil
}

func parseScheduler(kv fieldSet, p *Plan) error {
	var sk SchedulerKill
	if err := kv.durField("at", &sk.At); err != nil {
		return err
	}
	sk.AtTask = kv.take("at-task")
	if (sk.At > 0) == (sk.AtTask != "") {
		return fmt.Errorf("chaos: scheduler requires exactly one of at=DURATION or at-task=KEY")
	}
	p.Schedulers = append(p.Schedulers, sk)
	return nil
}

func parseWAL(kv fieldSet, p *Plan) error {
	f := WALFault{Partition: -1, Count: 1}
	f.Topic = kv.take("topic")
	if err := kv.intField("partition", &f.Partition); err != nil {
		return err
	}
	if err := kv.intField("after", &f.After); err != nil {
		return err
	}
	if err := kv.intField("count", &f.Count); err != nil {
		return err
	}
	if f.Count <= 0 {
		return fmt.Errorf("chaos: wal count must be positive")
	}
	p.WALs = append(p.WALs, f)
	return nil
}

func parseSlow(kv fieldSet, p *Plan) error {
	s := Slow{Worker: -1}
	if err := kv.intField("worker", &s.Worker); err != nil {
		return err
	}
	if err := kv.durField("at", &s.At); err != nil {
		return err
	}
	if err := kv.floatField("factor", &s.Factor); err != nil {
		return err
	}
	if err := kv.durField("until", &s.Until); err != nil {
		return err
	}
	if s.Worker < 0 {
		return fmt.Errorf("chaos: slow requires worker=N")
	}
	if s.At <= 0 {
		return fmt.Errorf("chaos: slow requires at=DURATION")
	}
	if s.Factor <= 1 {
		return fmt.Errorf("chaos: slow requires factor>1, got %v", s.Factor)
	}
	p.Slows = append(p.Slows, s)
	return nil
}

func parseNet(kv fieldSet, p *Plan) error {
	n := NetFault{Src: -1, Dst: -1}
	if err := kv.intField("src", &n.Src); err != nil {
		return err
	}
	if err := kv.intField("dst", &n.Dst); err != nil {
		return err
	}
	if err := kv.floatField("factor", &n.Factor); err != nil {
		return err
	}
	if err := kv.durField("at", &n.At); err != nil {
		return err
	}
	if err := kv.durField("until", &n.Until); err != nil {
		return err
	}
	if n.Src < 0 || n.Dst < 0 {
		return fmt.Errorf("chaos: net requires src=N and dst=M")
	}
	if n.Factor <= 1 {
		return fmt.Errorf("chaos: net requires factor>1, got %v", n.Factor)
	}
	p.Nets = append(p.Nets, n)
	return nil
}

// fieldSet holds a statement's key=value fields during parsing.
type fieldSet map[string]string

func parseFields(fields []string) (fieldSet, error) {
	kv := make(fieldSet, len(fields))
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("malformed field %q (want key=value)", f)
		}
		if _, dup := kv[k]; dup {
			return nil, fmt.Errorf("duplicate field %q", k)
		}
		kv[k] = v
	}
	return kv, nil
}

func (kv fieldSet) take(key string) string {
	v := kv[key]
	delete(kv, key)
	return v
}

func (kv fieldSet) intField(key string, dst *int) error {
	v, ok := kv[key]
	if !ok {
		return nil
	}
	delete(kv, key)
	n, err := strconv.Atoi(v)
	if err != nil {
		return fmt.Errorf("chaos: field %s=%q: %w", key, v, err)
	}
	*dst = n
	return nil
}

func (kv fieldSet) floatField(key string, dst *float64) error {
	v, ok := kv[key]
	if !ok {
		return nil
	}
	delete(kv, key)
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return fmt.Errorf("chaos: field %s=%q: %w", key, v, err)
	}
	*dst = f
	return nil
}

func (kv fieldSet) durField(key string, dst *time.Duration) error {
	v, ok := kv[key]
	if !ok {
		return nil
	}
	delete(kv, key)
	d, err := time.ParseDuration(v)
	if err != nil {
		return fmt.Errorf("chaos: field %s=%q: %w", key, v, err)
	}
	*dst = d
	return nil
}

func (kv fieldSet) unused() error {
	if len(kv) == 0 {
		return nil
	}
	var keys []string
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return fmt.Errorf("unknown field(s) %s", strings.Join(keys, ", "))
}

// WorkerKiller is the slice of a Dask cluster the controller needs: the
// ability to crash and restart workers by rank.
type WorkerKiller interface {
	KillWorker(rank int)
	RestartWorker(rank int)
}

// WorkerSlower is the slice of a Dask cluster brownout injection needs: the
// ability to dilate and restore one worker's service times.
type WorkerSlower interface {
	SlowWorker(rank int, factor float64)
	ClearSlowdown(rank int)
}

// LinkDegrader is the slice of the platform model net-fault injection needs.
// *platform.Cluster satisfies it.
type LinkDegrader interface {
	SetLinkFactor(src, dst int, factor float64)
}

// AppendFaulter is the slice of a Mofka broker the controller needs.
type AppendFaulter interface {
	SetAppendFault(func(topic string, partition int) error)
}

// BrokerKiller is the slice of a Mofka cluster the controller needs: the
// ability to crash and restart broker replicas by node id.
// *cluster.Cluster satisfies it.
type BrokerKiller interface {
	KillBroker(id int) error
	RestartBroker(id int) error
}

// Controller arms a plan against the systems under test, tracking the
// count-based fault state.
type Controller struct {
	plan *Plan

	mu      sync.Mutex
	walSeen []int
	walUsed []int
}

// NewController creates a controller for the plan (which may be nil/empty —
// arming then does nothing).
func NewController(plan *Plan) *Controller {
	if plan == nil {
		plan = &Plan{}
	}
	return &Controller{
		plan:    plan,
		walSeen: make([]int, len(plan.WALs)),
		walUsed: make([]int, len(plan.WALs)),
	}
}

// Check refuses a plan that names a target the run does not have: a worker
// rank, a platform node or a broker replica outside the run's shape (brokers
// is 0 when the run has no broker cluster). A session checks its plan against
// the shape its configuration fixes while validating it, before anything is
// built, so the arm functions below cannot fail.
func (p *Plan) Check(workers, nodes, brokers int) error {
	for _, kill := range p.Kills {
		if kill.Worker >= workers {
			return fmt.Errorf("chaos: kill worker=%d but cluster has %d workers", kill.Worker, workers)
		}
	}
	for _, slow := range p.Slows {
		if slow.Worker >= workers {
			return fmt.Errorf("chaos: slow worker=%d but cluster has %d workers", slow.Worker, workers)
		}
	}
	for _, nf := range p.Nets {
		if nf.Src >= nodes || nf.Dst >= nodes {
			return fmt.Errorf("chaos: net src=%d dst=%d but platform has %d nodes", nf.Src, nf.Dst, nodes)
		}
	}
	if len(p.Brokers) > 0 && brokers == 0 {
		return fmt.Errorf("chaos broker directive requires ClusterBrokers > 0")
	}
	for _, bk := range p.Brokers {
		if bk.Node >= brokers {
			return fmt.Errorf("chaos: broker node=%d but cluster has %d brokers", bk.Node, brokers)
		}
	}
	return nil
}

// ArmWorkerFaults schedules the plan's kills and restarts on the simulation
// kernel. Call before kernel.Run.
func (c *Controller) ArmWorkerFaults(k *sim.Kernel, cl WorkerKiller) {
	for _, kill := range c.plan.Kills {
		kk := kill
		k.At(sim.Time(kk.At), func() { cl.KillWorker(kk.Worker) })
		if kk.Restart > 0 {
			k.At(sim.Time(kk.At+kk.Restart), func() { cl.RestartWorker(kk.Worker) })
		}
	}
}

// ArmSlowdowns schedules the plan's worker brownouts on the simulation
// kernel. Like kills, onsets fire at exact virtual times, so the same spec
// degrades the same task executions on every run. Call before kernel.Run.
func (c *Controller) ArmSlowdowns(k *sim.Kernel, cl WorkerSlower) {
	for _, slow := range c.plan.Slows {
		ss := slow
		k.At(sim.Time(ss.At), func() { cl.SlowWorker(ss.Worker, ss.Factor) })
		if ss.Until > 0 {
			k.At(sim.Time(ss.At+ss.Until), func() { cl.ClearSlowdown(ss.Worker) })
		}
	}
}

// ArmLinkFaults schedules the plan's link degradations. Faults with no onset
// time take effect immediately; healed links are restored at exact virtual
// times. Call before kernel.Run.
func (c *Controller) ArmLinkFaults(k *sim.Kernel, net LinkDegrader) {
	for _, nf := range c.plan.Nets {
		n := nf
		if n.At > 0 {
			k.At(sim.Time(n.At), func() { net.SetLinkFactor(n.Src, n.Dst, n.Factor) })
		} else {
			net.SetLinkFactor(n.Src, n.Dst, n.Factor)
		}
		if n.Until > 0 {
			k.At(sim.Time(n.At+n.Until), func() { net.SetLinkFactor(n.Src, n.Dst, 1) })
		}
	}
}

// ArmClusterFaults schedules the plan's broker-replica kills and restarts
// on the simulation kernel against a sharded Mofka cluster. Kill/restart
// errors are ignored at fire time: an unknown broker cannot get past Check,
// and killing an already-dead node is a no-op by design (two overlapping
// broker directives must not abort the run). Call before kernel.Run.
func (c *Controller) ArmClusterFaults(k *sim.Kernel, cl BrokerKiller) {
	for _, bk := range c.plan.Brokers {
		b := bk
		k.At(sim.Time(b.At), func() { _ = cl.KillBroker(b.Node) })
		if b.Restart > 0 {
			k.At(sim.Time(b.At+b.Restart), func() { _ = cl.RestartBroker(b.Node) })
		}
	}
}

// ArmSchedulerFaults schedules the plan's time-triggered coordinator kills
// on the simulation kernel. crash must be idempotent (two scheduler
// directives may both fire; only the first takes the process down).
// Task-triggered kills (at-task=KEY) are not armed here — the session wires
// them through its execution-observing plugin, since the kernel cannot see
// task completions. Call before kernel.Run.
func (c *Controller) ArmSchedulerFaults(k *sim.Kernel, crash func(kill SchedulerKill)) {
	for _, sk := range c.plan.Schedulers {
		if sk.At <= 0 || sim.Time(sk.At) <= k.Now() {
			// Kill times are absolute virtual times; one already in the past
			// (a resumed session re-armed with the original spec) cannot fire
			// again.
			continue
		}
		s := sk
		k.At(sim.Time(s.At), func() { crash(s) })
	}
}

// TaskTriggeredSchedulerKills returns the coordinator kills that fire on a
// named task's completion, keyed by task, for the session to arm against its
// execution stream.
func (c *Controller) TaskTriggeredSchedulerKills() map[string]SchedulerKill {
	out := make(map[string]SchedulerKill)
	for _, sk := range c.plan.Schedulers {
		if sk.AtTask != "" {
			out[sk.AtTask] = sk
		}
	}
	return out
}

// ArmBroker installs the plan's WAL/append faults on the broker. A no-op
// when the plan has no WAL faults.
func (c *Controller) ArmBroker(b AppendFaulter) {
	if len(c.plan.WALs) == 0 {
		return
	}
	b.SetAppendFault(func(topic string, partition int) error {
		for i := range c.plan.WALs {
			f := &c.plan.WALs[i]
			if f.Topic != "" && f.Topic != topic {
				continue
			}
			if f.Partition >= 0 && f.Partition != partition {
				continue
			}
			c.mu.Lock()
			c.walSeen[i]++
			fire := c.walSeen[i] > f.After && c.walUsed[i] < f.Count
			if fire {
				c.walUsed[i]++
			}
			c.mu.Unlock()
			if fire {
				return fmt.Errorf("chaos: injected append fault on %s[%d]", topic, partition)
			}
		}
		return nil
	})
}
