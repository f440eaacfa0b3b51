package dask

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"taskprov/internal/mochi/ssg"
	"taskprov/internal/platform"
	"taskprov/internal/sim"
)

// Scheduler is the dynamic task scheduler: it tracks every task's state,
// decides worker placement with Dask's locality+occupancy heuristic, and
// runs the work-stealing loop.
type Scheduler struct {
	c    *Cluster
	node *platform.Node

	tasks   map[TaskKey]*schedTask
	workers []*workerHandle
	graphs  map[int]*graphState

	prefixDur map[string]*durAvg
	rng       *sim.RNG

	// queued holds root tasks withheld from saturated workers (Dask's
	// root-task queuing / worker-saturation behaviour), ordered by
	// priority.
	queued rootHeap

	// stealing tracks keys with an in-flight steal request.
	stealing map[TaskKey]bool

	// group is the SSG membership group the scheduler maintains over its
	// workers: heartbeats feed it, and a liveness sweep declares silent
	// workers dead, triggering eviction and task recovery.
	group      *ssg.Group
	memberRank map[ssg.MemberID]int

	// memo holds the previous attempt's completion frontier when this
	// scheduler is resuming a crashed run (SeedResume): tasks found here at
	// graph registration are memoized instead of re-executed. doneGraphs
	// lists graphs whose graph-done provenance event already made it to the
	// previous attempt's log, suppressing a duplicate emission.
	memo       map[TaskKey]ResumeMemo
	doneGraphs map[int]bool
	// resumePins lists keys whose revived blobs carry an attempt-long pin
	// reference (see schedTask.resumePinned), dropped after the run.
	resumePins []TaskKey

	// Speculative (hedged) execution state: the optional external straggler
	// advisor, the per-prefix completed-duration history behind the built-in
	// quantile policy, and the in-flight / per-run launch counters that bound
	// hedging (see speculate.go).
	specAdvisor  SpeculationAdvisor
	specSamples  map[string][]float64
	specInFlight int
	specLaunches int

	freeMsgs []*freeMsg // delivered free-keys messages, reused LIFO

	nextPriority int
	stealCount   int
	lostCount    int
	started      bool
}

// freeMsg is one free-keys message on its way to one worker. The broadcast is
// more than half of all control traffic (a message per connected worker per
// released key), so it travels as a recycled struct whose deliver method
// value is bound once instead of as a closure per message.
type freeMsg struct {
	s       *Scheduler
	w       *Worker
	key     TaskKey
	deliver func()
}

func (m *freeMsg) arrive() {
	w, key := m.w, m.key
	m.s.freeMsgs = append(m.s.freeMsgs, m)
	w.handleFree(key)
}

// saturationLimit is how many assigned-but-unfinished tasks a worker may
// hold before root tasks are withheld scheduler-side (Dask's
// worker-saturation factor of ~1.2).
func (s *Scheduler) saturationLimit() int {
	t := s.c.cfg.ThreadsPerWorker
	extra := t / 4
	if extra < 1 {
		extra = 1
	}
	return t + extra
}

type schedTask struct {
	spec     *TaskSpec
	graphID  int
	state    TaskState
	priority int
	retries  int

	waitingOn  map[TaskKey]struct{}
	dependents []TaskKey

	whoHas map[int]struct{} // worker ranks holding the result
	size   int64

	// attempts holds the task's live dispatches; live counts them and is
	// nonzero exactly while the task is in StateProcessing. Slot 0 is the
	// attempt provenance calls the primary, slot 1 the hedged duplicate; the
	// first attempt to report wins and the other is cancelled.
	attempts [2]attempt
	live     int

	// viaProxy marks a result published to the proxy store: dependents
	// receive a reference instead of a payload, and the blob's refcount
	// mirrors pendingDependents (+1 while the result is a held output).
	viaProxy bool

	pendingDependents int
	isOutput          bool

	// resumePinned marks a memoized task whose surviving blob SeedResume
	// revived: the blob stays resident (and the task in memory) for the whole
	// resumed attempt so later recomputation of lost downstream results never
	// re-executes it. The pin reference is dropped by ReleaseResumeOrphans.
	resumePinned bool
	// clientRef marks a proxied key a client gather has resolved: the client
	// holds the result for the rest of the run, mirrored by one blob
	// reference that is never dropped (and never freed out from under it).
	clientRef bool

	// suspicious counts how many times a worker died while running this
	// task; past AllowedFailures the task erres instead of rescheduling
	// forever (Dask's SuspiciousCount).
	suspicious int
	// completedOnce guards graph completion accounting: a recomputed task
	// that finishes (or erres) again must not decrement the graph's
	// outstanding count twice.
	completedOnce bool
}

// attempt is one dispatch of a task to a worker.
type attempt struct {
	rank      int
	startedAt sim.Time
}

// slotOn returns the slot of the task's live attempt on rank, or -1.
func (ts *schedTask) slotOn(rank int) int {
	for i := 0; i < ts.live; i++ {
		if ts.attempts[i].rank == rank {
			return i
		}
	}
	return -1
}

// hedged reports whether a duplicate attempt is in flight beside the primary.
func (ts *schedTask) hedged() bool { return ts.live == 2 }

type workerHandle struct {
	w          *Worker
	rank       int
	connected  bool
	occupancy  sim.Time
	processing map[TaskKey]struct{}
	memory     int64

	// SSG membership: the current incarnation's member ID, valid while
	// joined. everConnected distinguishes a first connect from a rejoin.
	ssgID         ssg.MemberID
	joined        bool
	everConnected bool

	// In-flight steal accounting, so one tick's batch of moves does not
	// over-correct the imbalance.
	inbound  int
	outbound int
}

type graphState struct {
	remaining int
	errMsg    string
}

type durAvg struct {
	total sim.Time
	n     int64
}

func (a *durAvg) add(d sim.Time) { a.total += d; a.n++ }
func (a *durAvg) mean() sim.Time {
	if a.n == 0 {
		return 0
	}
	return a.total / sim.Time(a.n)
}

func newScheduler(c *Cluster, node *platform.Node) *Scheduler {
	s := &Scheduler{
		c:           c,
		node:        node,
		tasks:       make(map[TaskKey]*schedTask),
		graphs:      make(map[int]*graphState),
		prefixDur:   make(map[string]*durAvg),
		stealing:    make(map[TaskKey]bool),
		memberRank:  make(map[ssg.MemberID]int),
		specSamples: make(map[string][]float64),
		rng:         c.kernel.RNG("dask/scheduler"),
	}
	s.group = ssg.NewGroup("dask/workers", ssg.Config{
		SuspectAfter: time.Duration(c.cfg.WorkerTTL) / 2,
		DeadAfter:    time.Duration(c.cfg.WorkerTTL),
	})
	s.group.Observe(s.onMembership)
	return s
}

// ssgNow maps the virtual clock onto the wall-clock type SSG speaks.
func (s *Scheduler) ssgNow() time.Time { return time.Unix(0, int64(s.c.kernel.Now())) }

func (s *Scheduler) registerWorkers(ws []*Worker) {
	for _, w := range ws {
		s.workers = append(s.workers, &workerHandle{
			w: w, rank: w.rank, processing: make(map[TaskKey]struct{}),
		})
	}
}

func (s *Scheduler) start() {
	if s.started {
		return
	}
	s.started = true
	if s.c.cfg.WorkStealing {
		s.c.kernel.After(s.c.cfg.StealInterval, s.stealTick)
	}
	if s.c.cfg.WorkerTTL > 0 {
		// The TTL sweep period carries the same deterministic jitter as worker
		// heartbeats, so a batch of simultaneously restarted workers is never
		// evicted in one synchronized storm on an exact sweep boundary.
		sweepRNG := s.c.kernel.RNG("dask/scheduler/sweep")
		var sweep func()
		sweep = func() {
			s.group.Sweep(s.ssgNow())
			s.c.kernel.After(sweepRNG.JitterTime(s.c.cfg.HeartbeatInterval, s.c.cfg.HeartbeatJitterCV), sweep)
		}
		s.c.kernel.After(sweepRNG.JitterTime(s.c.cfg.HeartbeatInterval, s.c.cfg.HeartbeatJitterCV), sweep)
	}
	if s.c.cfg.Speculation.Enabled {
		s.c.kernel.Every(s.c.cfg.Speculation.Interval, s.speculationTick)
	}
}

func (s *Scheduler) workerConnected(rank int) {
	wh := s.workers[rank]
	if wh.connected {
		// A fresh worker process reconnected before the previous incarnation
		// was declared dead: its state is gone, so evict the old one first.
		s.evictWorker(wh, "worker restarted")
	}
	rejoin := wh.everConnected
	if wh.joined {
		delete(s.memberRank, wh.ssgID)
		s.group.Leave(wh.ssgID)
	}
	wh.ssgID = s.group.Join(wh.w.addr, s.ssgNow())
	wh.joined = true
	s.memberRank[wh.ssgID] = rank
	wh.connected = true
	wh.everConnected = true
	if rejoin {
		s.emitRecovery(WarnWorkerRejoined, wh.w.addr, wh.w.node.Hostname,
			fmt.Sprintf("worker %s rejoined the cluster", wh.w.addr))
	}
	s.drainQueued()
}

// handleHeartbeat records a worker heartbeat in the membership group,
// reviving Suspect members.
func (s *Scheduler) handleHeartbeat(rank int) {
	wh := s.workers[rank]
	if !wh.connected || !wh.joined {
		return
	}
	s.group.Heartbeat(wh.ssgID, s.ssgNow())
}

// onMembership reacts to SSG liveness verdicts: a member declared dead is
// evicted, with all its tasks and data recovered elsewhere.
func (s *Scheduler) onMembership(ev ssg.Event) {
	if ev.Kind != ssg.EventFail {
		return
	}
	rank, ok := s.memberRank[ev.Member.ID]
	if !ok {
		return
	}
	wh := s.workers[rank]
	if !wh.connected || !wh.joined || wh.ssgID != ev.Member.ID {
		return
	}
	s.evictWorker(wh, "missed heartbeats")
}

// emitRecovery fans a failure/recovery warning out to the worker plugins, so
// it lands on the warnings provenance topic alongside GC and event-loop
// warnings.
func (s *Scheduler) emitRecovery(kind WarningKind, worker, hostname, msg string) {
	w := Warning{
		Kind: kind, Worker: worker, Hostname: hostname,
		At: s.c.kernel.Now(), Message: msg,
	}
	for _, p := range s.c.workerPlugins {
		p.WorkerWarning(w)
	}
}

// evictWorker removes a dead worker from the cluster's working set: its SSG
// membership is dropped, its in-memory replicas are forgotten (keys whose
// last replica lived there are recomputed from their dependencies), and the
// tasks it was processing are rescheduled — Dask's resilience model.
func (s *Scheduler) evictWorker(wh *workerHandle, reason string) {
	if !wh.connected {
		return
	}
	wh.connected = false
	if wh.joined {
		delete(s.memberRank, wh.ssgID)
		s.group.Leave(wh.ssgID)
		wh.joined = false
	}
	wh.occupancy, wh.memory = 0, 0
	wh.inbound, wh.outbound = 0, 0
	wh.processing = make(map[TaskKey]struct{})
	s.lostCount++
	addr, host := wh.w.addr, wh.w.node.Hostname
	s.emitRecovery(WarnWorkerLost, addr, host,
		fmt.Sprintf("worker %s declared dead (%s); evicting", addr, reason))

	// Sweep the dead worker's proxy blobs before re-planning: references to
	// them now dangle, and the recompute pass below republishes what is
	// still needed under a new owner.
	if s.c.proxy != nil {
		if blobs, bytes := s.c.proxy.reclaimWorker(wh.rank, addr); blobs > 0 {
			s.emitRecovery(WarnBlobReclaimed, addr, host, reclaimMessage(addr, blobs, bytes))
		}
	}

	// Collect affected tasks and process them in priority order (priorities
	// follow topological submission order, so lost dependencies are handled
	// before the tasks that consume them). Never iterate the raw task map:
	// the recovery event sequence must reproduce exactly per seed.
	var affected []*schedTask
	for _, ts := range s.tasks {
		if _, holds := ts.whoHas[wh.rank]; holds || ts.slotOn(wh.rank) >= 0 {
			affected = append(affected, ts)
		}
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i].priority < affected[j].priority })

	for _, ts := range affected {
		if _, holds := ts.whoHas[wh.rank]; holds {
			s.dropReplica(ts, wh)
			continue
		}
		// An attempt died with the worker. A hedged task carries on with its
		// other attempt — exactly the scenario hedging exists for, so no
		// requeue and no suspicion charge.
		if s.attemptLost(ts, wh.rank, "'s worker died") {
			continue
		}
		// Requeue, unless this task has now killed its host too many times to
		// be trusted.
		ts.suspicious++
		if ts.suspicious > s.c.cfg.AllowedFailures {
			s.markErred(ts, fmt.Sprintf("worker died %d times while running it", ts.suspicious))
			continue
		}
		s.emitRecovery(WarnTaskRescheduled, addr, host,
			fmt.Sprintf("task %s was processing on dead worker; rescheduling", ts.spec.Key))
		s.rescheduleTask(ts, "worker-lost")
	}
	s.drainQueued()
}

// dropReplica forgets wh's replica of a key. An in-memory key that loses its
// last replica is recomputed from its dependencies if anything still needs
// it, and released otherwise.
func (s *Scheduler) dropReplica(ts *schedTask, wh *workerHandle) {
	delete(ts.whoHas, wh.rank)
	if len(ts.whoHas) > 0 || ts.state != StateMemory {
		return
	}
	if !s.needed(ts) {
		s.transition(ts, StateReleased, "lost-data")
		return
	}
	s.emitRecovery(WarnKeyRecomputed, wh.w.addr, wh.w.node.Hostname,
		fmt.Sprintf("key %s lost its last replica; recomputing", ts.spec.Key))
	s.recomputeKey(ts)
}

// needed reports whether a task's result must exist: it is a graph output
// the client holds, or a pending dependent still consumes it.
func (s *Scheduler) needed(ts *schedTask) bool {
	return ts.isOutput || ts.pendingDependents > 0
}

// addDependent registers dep edges idempotently (recovery may re-wire an
// edge the original graph wiring already recorded).
func addDependent(dt *schedTask, key TaskKey) {
	for _, k := range dt.dependents {
		if k == key {
			return
		}
	}
	dt.dependents = append(dt.dependents, key)
}

// recomputeKey transitions a lost in-memory key back to waiting so it is
// recomputed from its dependencies (whoHas shrank to zero while still
// needed). Waiting dependents had already checked this key off their
// waiting sets when it first reached memory, so it must be re-added —
// otherwise they are assigned the moment their remaining deps finish and
// fetch a key that exists nowhere.
func (s *Scheduler) recomputeKey(ts *schedTask) {
	key := ts.spec.Key
	for _, dep := range ts.dependents {
		dt := s.tasks[dep]
		if dt.state == StateWaiting {
			dt.waitingOn[key] = struct{}{}
		}
	}
	s.transition(ts, StateReleased, "lost-data")
	s.reviveReleased(ts)
}

// reviveReleased re-acquires the dependencies of a released task and returns
// it to waiting, recursively reviving dependencies that were themselves
// freed by refcounting. Dependency refcounts are re-taken here and released
// again when the task re-finishes, keeping the accounting symmetric.
func (s *Scheduler) reviveReleased(ts *schedTask) {
	ts.waitingOn = make(map[TaskKey]struct{})
	for _, d := range ts.spec.Deps {
		dt := s.tasks[d]
		dt.pendingDependents++
		addDependent(dt, ts.spec.Key)
		if dt.state == StateMemory {
			if dt.viaProxy {
				// Mirror the re-taken refcount on the live blob.
				s.c.proxy.retain(d, 1)
			}
			continue
		}
		ts.waitingOn[d] = struct{}{}
		if dt.state == StateReleased {
			s.reviveReleased(dt)
		}
	}
	s.transition(ts, StateWaiting, "recompute")
	if len(ts.waitingOn) == 0 {
		s.maybeSchedule(ts)
	}
}

// awaitDeps rebuilds a task's waiting set against current data locations,
// reviving dependencies that were released in the meantime. The task's
// dependency refcounts are still held (it never finished).
func (s *Scheduler) awaitDeps(ts *schedTask) {
	ts.waitingOn = make(map[TaskKey]struct{})
	for _, d := range ts.spec.Deps {
		dt := s.tasks[d]
		if dt.state == StateMemory {
			continue
		}
		ts.waitingOn[d] = struct{}{}
		addDependent(dt, ts.spec.Key)
		if dt.state == StateReleased {
			s.reviveReleased(dt)
		}
	}
}

// rescheduleTask requeues a task whose last attempt died under it.
func (s *Scheduler) rescheduleTask(ts *schedTask, stimulus string) {
	s.awaitDeps(ts)
	s.transition(ts, StateWaiting, stimulus)
	if len(ts.waitingOn) == 0 {
		s.maybeSchedule(ts)
	}
}

// handleMissingData processes a worker's report that it surrendered tasks
// because a dependency fetch failed: the source process died (srcRank), or
// the assignment named no holder at all (srcRank < 0). A dead source is
// dropped from the surrendered tasks' dependency replica sets (recomputing
// any key that lost its last replica) and the tasks are rescheduled.
func (s *Scheduler) handleMissingData(rank, srcRank int, keys []TaskKey) {
	wh := s.workers[rank]
	what := "was assigned a dependency no worker holds"
	var deadSrc *workerHandle
	if srcRank >= 0 {
		what = "lost a dependency source mid-fetch"
		if src := s.workers[srcRank]; !src.w.alive {
			deadSrc = src
		}
	}
	for _, k := range keys {
		ts, ok := s.tasks[k]
		if !ok || ts.slotOn(rank) < 0 {
			continue
		}
		survives := s.attemptLost(ts, rank, " "+what)
		if deadSrc != nil {
			for _, d := range ts.spec.Deps {
				dt := s.tasks[d]
				if _, held := dt.whoHas[deadSrc.rank]; held {
					s.dropReplica(dt, deadSrc)
				}
			}
		}
		if survives {
			continue
		}
		s.emitRecovery(WarnTaskRescheduled, wh.w.addr, wh.w.node.Hostname,
			fmt.Sprintf("task %s %s; rescheduling", k, what))
		s.rescheduleTask(ts, "missing-data")
	}
	s.drainQueued()
}

// ConnectedWorkers reports how many workers completed their handshake.
func (s *Scheduler) ConnectedWorkers() int {
	n := 0
	for _, wh := range s.workers {
		if wh.connected {
			n++
		}
	}
	return n
}

func (s *Scheduler) estimate(prefix string) sim.Time {
	if a, ok := s.prefixDur[prefix]; ok && a.n > 0 {
		return a.mean()
	}
	return s.c.cfg.DefaultTaskDuration
}

// handleGraph registers a submitted graph and schedules its runnable tasks.
func (s *Scheduler) handleGraph(g *Graph) {
	now := s.c.kernel.Now()
	s.graphs[g.ID] = &graphState{remaining: g.Len()}

	leaves := make(map[TaskKey]bool)
	for _, k := range g.Leaves() {
		leaves[k] = true
	}
	order := g.Keys()
	newTasks := make([]*schedTask, 0, len(order))
	memoized := 0
	for _, k := range order {
		spec, _ := g.Task(k)
		if _, dup := s.tasks[k]; dup {
			panic(fmt.Sprintf("dask: task %q resubmitted in graph %d", k, g.ID))
		}
		ts := &schedTask{
			spec:      spec,
			graphID:   g.ID,
			state:     StateReleased,
			priority:  s.nextPriority,
			waitingOn: make(map[TaskKey]struct{}),
			whoHas:    make(map[int]struct{}),
			isOutput:  leaves[k],
		}
		s.nextPriority++
		s.tasks[k] = ts

		for _, p := range s.c.schedPlugins {
			p.TaskAdded(TaskMeta{
				Key: k, Prefix: spec.Prefix(), Group: spec.Group(),
				GraphID: g.ID, Deps: spec.Deps, At: now,
			})
		}

		if m, ok := s.resumeMemo(k); ok {
			// Completed in a previous attempt: memoize instead of
			// re-executing. Resolvable outputs re-enter distributed memory
			// backed by their surviving proxy blob; lost ones stay released
			// and are recomputed only if a live consumer (or gather) demands
			// them. Dependency edges are not wired — the previous attempt
			// already consumed them.
			ts.size = m.Size
			ts.completedOnce = true
			memoized++
			if m.Resolvable {
				ts.viaProxy = true
				ts.resumePinned = true
				ts.whoHas[m.Owner] = struct{}{}
				s.transition(ts, StateMemory, "resume-memo")
				// Pin the surviving blob for the whole attempt (plus the usual
				// output reference): the resumed run cannot predict which lost
				// downstream results a later gather will recompute, and an
				// eagerly freed survivor would force re-executing a task whose
				// output was still resolvable. ReleaseResumeOrphans drops the
				// pins after the run.
				n := 1
				if ts.isOutput {
					n++
				}
				s.c.proxy.retain(k, n)
				s.resumePins = append(s.resumePins, k)
				delete(s.c.resumeSeeded, k)
			} else {
				s.transition(ts, StateReleased, "resume-lost")
			}
			continue
		}
		newTasks = append(newTasks, ts)
	}
	// Wire dependencies, treating deps absent from this graph as externals
	// that must already be in distributed memory.
	for _, ts := range newTasks {
		for _, d := range ts.spec.Deps {
			dt, ok := s.tasks[d]
			if !ok {
				panic(fmt.Sprintf("dask: task %q depends on unknown key %q", ts.spec.Key, d))
			}
			dt.pendingDependents++
			if dt.state != StateMemory {
				ts.waitingOn[d] = struct{}{}
				dt.dependents = append(dt.dependents, ts.spec.Key)
			} else if dt.viaProxy {
				// Cross-graph dependency on a live blob: mirror the new
				// dependent on its refcount.
				s.c.proxy.retain(d, 1)
			}
		}
	}
	for _, ts := range newTasks {
		s.transition(ts, StateWaiting, "update-graph")
		if len(ts.waitingOn) == 0 {
			s.maybeSchedule(ts)
		}
	}
	// Revive completed-but-lost dependencies that live consumers wired:
	// their outputs died with the crashed session, so they are the
	// deliberately recomputed tail. Runs after the update-graph transitions
	// so every still-released task reachable here has completed once.
	for _, ts := range newTasks {
		for _, d := range ts.spec.Deps {
			if dt := s.tasks[d]; dt.state == StateReleased && dt.completedOnce {
				s.reviveReleased(dt)
			}
		}
	}
	// Memoized tasks count as finished for graph completion; a fully
	// memoized graph completes (and notifies the client) right here.
	for i := 0; i < memoized; i++ {
		s.finishGraphTask(g.ID)
	}
}

func (s *Scheduler) transition(ts *schedTask, to TaskState, stimulus string) {
	from := ts.state
	ts.state = to
	s.c.emitSchedTransition(Transition{
		Key: ts.spec.Key, From: from, To: to,
		Stimulus: stimulus, Location: "scheduler", At: s.c.kernel.Now(),
	})
}

// allowed reports whether a task may be placed on a worker at all: the
// worker is connected and the task's restrictions (if any) name it.
func allowed(ts *schedTask, wh *workerHandle) bool {
	if !wh.connected {
		return false
	}
	if len(ts.spec.Restrictions) == 0 {
		return true
	}
	for _, r := range ts.spec.Restrictions {
		if r == wh.w.addr {
			return true
		}
	}
	return false
}

// placeAmong reproduces Dask's worker_objective over the candidate workers:
// minimize estimated start time = occupancy per thread + cost of fetching the
// dependencies the candidate does not hold; near-ties break randomly (a
// deliberate source of run-to-run placement variability). Returns nil when
// there is no candidate.
func (s *Scheduler) placeAmong(ts *schedTask, candidate func(*workerHandle) bool) *workerHandle {
	// Planning bandwidth mirrors distributed's default 100 MB/s estimate:
	// transfer avoidance dominates placement for large dependencies.
	const netBW = 100e6
	best := []*workerHandle(nil)
	bestScore := math.Inf(1)
	for _, wh := range s.workers {
		if !candidate(wh) {
			continue
		}
		fetch := int64(0)
		missing := 0
		for _, d := range ts.spec.Deps {
			dt := s.tasks[d]
			if dt == nil {
				continue
			}
			if _, has := dt.whoHas[wh.rank]; !has {
				fetch += dt.size
				missing++
			}
		}
		score := wh.occupancy.Seconds()/float64(s.c.cfg.ThreadsPerWorker) +
			float64(fetch)/netBW + 0.01*float64(missing)
		switch {
		case score < bestScore-1e-9:
			bestScore = score
			best = best[:0]
			best = append(best, wh)
		case score <= bestScore+1e-9:
			best = append(best, wh)
		}
	}
	if len(best) == 0 {
		return nil
	}
	return best[s.rng.Intn(len(best))]
}

// decideWorker is the placement policy for a task's first attempt: root
// tasks go to any unsaturated worker, tasks with dependencies to a worker
// already holding some of that data.
func (s *Scheduler) decideWorker(ts *schedTask) *workerHandle {
	isRoot := len(ts.spec.Deps) == 0
	// Like Dask's decide_worker, tasks with dependencies choose among the
	// workers already holding some of that data; balance is restored by
	// work stealing rather than by eager spreading. Restrictions override
	// the candidate narrowing.
	holders := map[int]bool{}
	if !isRoot && len(ts.spec.Restrictions) == 0 {
		for _, d := range ts.spec.Deps {
			if dt := s.tasks[d]; dt != nil {
				for r := range dt.whoHas {
					holders[r] = true
				}
			}
		}
		// When every data holder is deeply backlogged (a fan-out burst just
		// landed, e.g. all chunk tasks of one image becoming ready at
		// once), the least-occupied worker becomes a candidate too:
		// consumers spill away from their data and fetch it, which is
		// where much of the cross-worker traffic in Table I comes from.
		spillDepth := 2 * s.saturationLimit()
		spill := len(holders) > 0
		for r := range holders {
			if len(s.workers[r].processing) < spillDepth {
				spill = false
				break
			}
		}
		if spill {
			leastRank, leastOcc := -1, sim.Time(0)
			for _, wh := range s.workers {
				if !wh.connected {
					continue
				}
				if leastRank < 0 || wh.occupancy < leastOcc {
					leastRank, leastOcc = wh.rank, wh.occupancy
				}
			}
			if leastRank >= 0 {
				holders[leastRank] = true
			}
		}
	}
	return s.placeAmong(ts, func(wh *workerHandle) bool {
		if !allowed(ts, wh) {
			return false
		}
		if isRoot && len(wh.processing) >= s.saturationLimit() {
			return false // withhold root tasks from saturated workers
		}
		return len(holders) == 0 || holders[wh.rank]
	})
}

func (s *Scheduler) maybeSchedule(ts *schedTask) {
	wh := s.decideWorker(ts)
	if wh == nil {
		if len(ts.spec.Deps) == 0 && s.ConnectedWorkers() > 0 {
			// All candidate workers are saturated: withhold the root task
			// scheduler-side until a slot frees (Dask's queued state).
			s.queued.push(ts)
			return
		}
		// No connected worker yet: retry shortly (tasks are submitted
		// after the client waited for workers, so this is rare).
		s.c.kernel.After(sim.Milliseconds(50), func() {
			if ts.state == StateWaiting {
				s.maybeSchedule(ts)
			}
		})
		return
	}
	s.assign(ts, wh, "waiting")
}

// drainQueued assigns withheld root tasks while any worker has slack.
func (s *Scheduler) drainQueued() {
	for s.queued.Len() > 0 {
		ts := s.queued.peek()
		if ts.state != StateWaiting {
			s.queued.pop() // released or already handled; drop
			continue
		}
		wh := s.decideWorker(ts)
		if wh == nil {
			return
		}
		s.queued.pop()
		s.assign(ts, wh, "queue-slot")
	}
}

// assign launches a waiting task's first attempt on the chosen worker.
func (s *Scheduler) assign(ts *schedTask, wh *workerHandle, stimulus string) {
	if !s.launch(ts, wh) {
		// A dependency lost its last replica after the task's waiting set
		// emptied (it was stolen, retried or parked meanwhile): wait for the
		// recomputation, which reschedules the task when it lands.
		s.awaitDeps(ts)
		return
	}
	s.transition(ts, StateProcessing, stimulus)
}

// launch starts one more attempt of ts on wh: it records the attempt, enters
// it in the worker's processing/occupancy ledger, and ships the compute-task
// message (spec, priority, and dependency locations/references). Every
// attempt — first, stolen, or hedged duplicate — starts here, and none starts
// unless each dependency is in memory on a registered holder the worker can
// fetch it from; launch then returns false having done nothing.
func (s *Scheduler) launch(ts *schedTask, wh *workerHandle) bool {
	deps := make([]depInfo, 0, len(ts.spec.Deps))
	proxyRefs := int64(0)
	for _, d := range ts.spec.Deps {
		dt := s.tasks[d]
		if dt.state != StateMemory || len(dt.whoHas) == 0 {
			return false
		}
		holders := make([]int, 0, len(dt.whoHas))
		for r := range dt.whoHas {
			holders = append(holders, r)
		}
		// The worker indexes the snapshot with an RNG draw: rank order keeps
		// its source pick independent of map iteration order.
		sort.Ints(holders)
		deps = append(deps, depInfo{key: d, size: dt.size, holders: holders, viaProxy: dt.viaProxy})
		if dt.viaProxy {
			proxyRefs++
		}
	}
	ts.attempts[ts.live] = attempt{rank: wh.rank, startedAt: s.c.kernel.Now()}
	ts.live++
	wh.processing[ts.spec.Key] = struct{}{}
	wh.occupancy += s.estimate(ts.spec.Prefix())
	// A proxied dependency rides the message as a reference instead of a
	// payload location set the worker must pull through eagerly.
	s.c.addControlBytes(proxyRefs * s.c.cfg.ProxyRefBytes)
	a := assignment{spec: ts.spec, graphID: ts.graphID, priority: ts.priority, deps: deps}
	s.c.control(s.node, wh.w.node, func() { wh.w.handleAssign(a) })
	return true
}

// endAttempt retires ts's attempt on rank and takes it off that worker's
// processing/occupancy ledger; a surviving duplicate moves up to slot 0. An
// evicted worker's ledger was already reset wholesale.
func (s *Scheduler) endAttempt(ts *schedTask, rank int) {
	if ts.slotOn(rank) == 0 {
		ts.attempts[0] = ts.attempts[1]
	}
	ts.live--
	wh := s.workers[rank]
	if !wh.connected {
		return
	}
	delete(wh.processing, ts.spec.Key)
	wh.occupancy -= s.estimate(ts.spec.Prefix())
	if wh.occupancy < 0 {
		wh.occupancy = 0
	}
}

// attemptLost ends ts's attempt on rank because it can no longer produce the
// result — what says why, worded to follow "primary attempt" (" erred: …",
// "'s worker died") — and reports whether the task carries on regardless. A
// hedged task does, with its other attempt alone: a lost duplicate fails the
// speculation, a lost primary promotes the duplicate, and hedging being an
// optimization, neither costs a retry. Otherwise the task is left with no
// attempt, for the caller to reschedule or err.
func (s *Scheduler) attemptLost(ts *schedTask, rank int, what string) bool {
	hedged := ts.hedged()
	if hedged {
		kind, role := SpecPromoted, "primary"
		if ts.slotOn(rank) == 1 {
			kind, role = SpecFailed, "duplicate"
		}
		s.emitSpeculation(SpeculationEvent{
			Kind: kind, Key: ts.spec.Key,
			Primary:   s.workers[ts.attempts[0].rank].w.addr,
			Duplicate: s.workers[ts.attempts[1].rank].w.addr,
			Detail:    role + " attempt" + what, At: s.c.kernel.Now(),
		})
		s.specInFlight--
	}
	s.endAttempt(ts, rank)
	return hedged
}

// handleErred processes a worker's task-failure report: the task is
// retried up to its MaxRetries, then marked erred, which transitively erres
// every waiting dependent (Dask's upstream-failure propagation) and
// eventually completes the graph with an error.
func (s *Scheduler) handleErred(rank int, key TaskKey, msg string) {
	ts, ok := s.tasks[key]
	if !ok || ts.slotOn(rank) < 0 {
		return
	}
	if s.attemptLost(ts, rank, " erred: "+msg) {
		return
	}
	if ts.retries < ts.spec.MaxRetries {
		ts.retries++
		s.transition(ts, StateWaiting, "retry")
		s.maybeSchedule(ts)
		return
	}
	s.markErred(ts, msg)
	s.drainQueued()
}

// markErred transitions a task (and, transitively, its waiting dependents)
// to erred and accounts for graph completion.
func (s *Scheduler) markErred(ts *schedTask, msg string) {
	if ts.state == StateErred {
		return
	}
	s.transition(ts, StateErred, "task-erred")
	gs := s.graphs[ts.graphID]
	if gs.errMsg == "" {
		gs.errMsg = fmt.Sprintf("task %s erred: %s", ts.spec.Key, msg)
	}
	if !ts.completedOnce {
		ts.completedOnce = true
		s.finishGraphTask(ts.graphID)
	}
	for _, dep := range ts.dependents {
		dt := s.tasks[dep]
		if dt.state == StateWaiting {
			s.markErred(dt, fmt.Sprintf("upstream %s erred", ts.spec.Key))
		}
	}
}

// finishGraphTask decrements a graph's outstanding-task count and notifies
// the client when the graph drains (successfully or not).
func (s *Scheduler) finishGraphTask(graphID int) {
	gs := s.graphs[graphID]
	gs.remaining--
	if gs.remaining != 0 {
		return
	}
	now := s.c.kernel.Now()
	if !s.doneGraphs[graphID] {
		// A resumed run suppresses the plugin event for graphs whose done
		// event already reached the previous attempt's log — the merged
		// provenance keeps exactly one done record per graph. The client is
		// always notified (it is waiting on this attempt's submission).
		for _, p := range s.c.schedPlugins {
			p.GraphDone(graphID, now)
		}
	}
	errMsg := gs.errMsg
	s.c.control(s.node, s.c.client.node, func() { s.c.client.graphDone(graphID, errMsg) })
}

// handleFinished processes a worker's task-completion report. proxied marks
// a result published to the proxy store instead of shipped directly.
func (s *Scheduler) handleFinished(rank int, key TaskKey, size int64, dur sim.Time, proxied bool) {
	ts, ok := s.tasks[key]
	if !ok || ts.slotOn(rank) < 0 {
		return // stale report (e.g. task was stolen mid-flight)
	}
	if ts.hedged() {
		if proxied {
			if ref, ok := s.c.proxy.lookup(key); ok && ref.Owner != rank {
				// Both attempts raced to publish and the store's
				// first-write-wins fence kept the other attempt's blob. Drop
				// this report — the blob owner's report is in flight and wins,
				// so the scheduler's winner and the store's owner never
				// diverge.
				return
			}
		}
		s.settleSpeculation(ts, rank)
	}
	s.endAttempt(ts, rank)
	wh := s.workers[rank]
	pfx := ts.spec.Prefix()
	if _, ok := s.prefixDur[pfx]; !ok {
		s.prefixDur[pfx] = &durAvg{}
	}
	s.prefixDur[pfx].add(dur)
	s.observeSpecDuration(pfx, dur)

	ts.size = size
	ts.viaProxy = proxied
	ts.whoHas[rank] = struct{}{}
	wh.memory += size
	s.transition(ts, StateMemory, "task-finished")
	if proxied {
		// Mirror the scheduler's dependent refcount onto the blob, plus one
		// reference pinning graph outputs until the client lets go.
		n := ts.pendingDependents
		if ts.isOutput {
			n++
		}
		s.c.proxy.retain(key, n)
	}

	for _, dep := range ts.dependents {
		dt := s.tasks[dep]
		delete(dt.waitingOn, key)
		if len(dt.waitingOn) == 0 && dt.state == StateWaiting {
			s.maybeSchedule(dt)
		}
	}
	// Reference counting: release inputs no longer needed by any pending
	// dependent (and that are not graph outputs).
	for _, d := range ts.spec.Deps {
		dt := s.tasks[d]
		dt.pendingDependents--
		if dt.viaProxy {
			s.c.proxy.release(d)
		}
		if dt.pendingDependents <= 0 && !dt.isOutput && !dt.resumePinned && !dt.clientRef && dt.state == StateMemory {
			s.release(dt)
		}
	}

	s.drainQueued()
	if !ts.completedOnce {
		ts.completedOnce = true
		s.finishGraphTask(ts.graphID)
	}
}

func (s *Scheduler) release(ts *schedTask) {
	// Broadcast: consumers hold fetched replicas the scheduler never hears
	// about, so every connected worker gets the free message (Dask's
	// free-keys fan-out).
	key := ts.spec.Key
	for _, wh := range s.workers {
		if !wh.connected {
			continue
		}
		if _, holds := ts.whoHas[wh.rank]; holds {
			wh.memory -= ts.size
		}
		var m *freeMsg
		if n := len(s.freeMsgs); n > 0 {
			m, s.freeMsgs = s.freeMsgs[n-1], s.freeMsgs[:n-1]
		} else {
			m = &freeMsg{s: s}
			m.deliver = m.arrive
		}
		m.w, m.key = wh.w, key
		s.c.control(s.node, wh.w.node, m.deliver)
	}
	clear(ts.whoHas)
	if ts.viaProxy {
		// The refcount drain above normally destroyed the blob already; this
		// covers paths that free a key without draining references.
		s.c.proxy.free(key)
	}
	s.transition(ts, StateReleased, "no-dependents")
}

// handleGather serves one client gather request. In the direct data plane
// the payload relays through the scheduler process — Dask's
// gather(direct=False) default — charging its full size to the control path
// twice (owner -> scheduler, scheduler -> client). With the proxy store the
// scheduler replies with the blob reference and the client pulls the payload
// peer-to-peer from the owner, so the control path carries only
// ProxyRefBytes. A key not (yet, or no longer) in memory polls until the
// recompute machinery lands it; an erred key delivers zero bytes.
func (s *Scheduler) handleGather(key TaskKey, deliver func(size int64)) {
	retry := func() {
		s.c.kernel.After(sim.Milliseconds(100), func() { s.handleGather(key, deliver) })
	}
	ts, ok := s.tasks[key]
	if !ok || ts.state == StateErred {
		s.c.control(s.node, s.c.client.node, func() { deliver(0) })
		return
	}
	if ts.state == StateReleased && ts.completedOnce {
		// A completed-then-lost key (memoized from a previous attempt, or
		// refcount-released) being gathered: recompute it on demand, then
		// fall into the retry loop until it lands back in memory.
		s.reviveReleased(ts)
	}
	if ts.state != StateMemory {
		retry()
		return
	}
	rank := -1
	for r := range ts.whoHas {
		if rank < 0 || r < rank {
			rank = r
		}
	}
	if rank < 0 {
		retry()
		return
	}
	owner := s.workers[rank]
	if !owner.connected || !owner.w.alive {
		// Holder died but eviction has not caught up; the recompute pass
		// will land the key somewhere alive.
		retry()
		return
	}
	size := ts.size
	if ts.viaProxy {
		if !ts.clientRef {
			// The client holds the gathered result from here on: one blob
			// reference it never drops, so later consumers draining their
			// refcounts cannot destroy a client-held blob.
			ts.clientRef = true
			s.c.proxy.retain(key, 1)
		}
		s.c.addControlBytes(s.c.cfg.ProxyRefBytes)
		s.c.control(s.node, s.c.client.node, func() {
			demand := s.c.kernel.Now()
			s.c.plat.Transfer(owner.w.node, s.c.client.node, size, func() {
				stop := s.c.kernel.Now()
				rec := Transfer{
					Key: key, From: owner.w.addr, To: "client", Bytes: size,
					Start: demand, Stop: stop, SameNode: owner.w.node == s.c.client.node,
					ViaProxy: true, ResolveLatency: stop - demand,
				}
				for _, p := range s.c.workerPlugins {
					p.TransferReceived(rec)
				}
				s.c.proxy.resolved(key, "client", size, stop-demand)
				deliver(size)
			})
		})
		return
	}
	s.c.addControlBytes(size)
	s.c.plat.Transfer(owner.w.node, s.node, size, func() {
		s.c.addControlBytes(size)
		s.c.plat.Transfer(s.node, s.c.client.node, size, func() {
			deliver(size)
		})
	})
}

// stealTick is the work-stealing loop: idle workers take queued (not yet
// executing) tasks from saturated ones. Several moves may be issued per
// tick (Dask rebalances in batches), with in-flight requests tracked so the
// same task is not stolen twice.
func (s *Scheduler) stealTick() {
	defer s.c.kernel.After(s.c.cfg.StealInterval, s.stealTick)
	threads := s.c.cfg.ThreadsPerWorker
	for moves := 0; moves < 2*threads; moves++ {
		var thief, victim *workerHandle
		for _, wh := range s.workers {
			if !wh.connected {
				continue
			}
			load := len(wh.processing) + wh.inbound
			if load < threads && (thief == nil || load < len(thief.processing)+thief.inbound) {
				thief = wh
			}
			if len(wh.processing)-wh.outbound > threads+1 &&
				(victim == nil || len(wh.processing)-wh.outbound > len(victim.processing)-victim.outbound) {
				victim = wh
			}
		}
		if thief == nil || victim == nil || thief == victim {
			return
		}
		// Pick the victim's queued task with the highest priority number
		// that we believe has not started (the victim confirms) and is not
		// already being stolen.
		var pick *schedTask
		for k := range victim.processing {
			ts := s.tasks[k]
			if len(ts.spec.Restrictions) > 0 || s.stealing[k] || ts.hedged() {
				// Speculated tasks are pinned: moving either attempt would
				// race the first-completion-wins settlement.
				continue
			}
			if pick == nil || ts.priority > pick.priority {
				pick = ts // steal from the back of the queue, like Dask
			}
		}
		if pick == nil {
			return
		}
		key := pick.spec.Key
		s.stealing[key] = true
		victim.outbound++
		thief.inbound++
		vw, tw := victim, thief
		s.c.control(s.node, vw.w.node, func() {
			ok := vw.w.handleStealRequest(key)
			s.c.control(vw.w.node, s.node, func() { s.stealResponse(key, vw, tw, ok) })
		})
	}
}

func (s *Scheduler) stealResponse(key TaskKey, victim, thief *workerHandle, ok bool) {
	delete(s.stealing, key)
	// Eviction zeroes the in-flight counters; a response that straddled the
	// eviction must not push them negative.
	if victim.outbound--; victim.outbound < 0 {
		victim.outbound = 0
	}
	if thief.inbound--; thief.inbound < 0 {
		thief.inbound = 0
	}
	if !ok {
		return
	}
	ts := s.tasks[key]
	if ts == nil || ts.slotOn(victim.rank) != 0 {
		return
	}
	s.endAttempt(ts, victim.rank)
	// The task visibly returns to waiting, so the captured transition chain
	// stays well-formed.
	s.transition(ts, StateWaiting, "stolen")
	if !thief.connected {
		// The thief died while the steal was in flight: re-plan instead of
		// assigning into the void.
		s.maybeSchedule(ts)
		return
	}
	s.stealCount++
	now := s.c.kernel.Now()
	for _, p := range s.c.schedPlugins {
		p.Stolen(StealEvent{Key: key, Victim: victim.w.addr, Thief: thief.w.addr, At: now})
	}
	s.assign(ts, thief, "stolen")
}

// taskHeap orders worker-ready tasks by priority (lower = earlier).
type taskHeap []*wTask

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return h[i].priority < h[j].priority }
func (h taskHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)        { *h = append(*h, x.(*wTask)) }
func (h *taskHeap) Pop() any          { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }
func (h *taskHeap) pushTask(t *wTask) { heap.Push(h, t) }
func (h *taskHeap) popTask() *wTask   { return heap.Pop(h).(*wTask) }
func (h *taskHeap) remove(t *wTask) bool {
	for i, x := range *h {
		if x == t {
			heap.Remove(h, i)
			return true
		}
	}
	return false
}

// rootHeap is a priority queue of withheld root tasks.
type rootHeap []*schedTask

func (h rootHeap) Len() int           { return len(h) }
func (h rootHeap) Less(i, j int) bool { return h[i].priority < h[j].priority }
func (h rootHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *rootHeap) Push(x any)        { *h = append(*h, x.(*schedTask)) }
func (h *rootHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}
func (h *rootHeap) push(t *schedTask) { heap.Push(h, t) }
func (h *rootHeap) pop() *schedTask   { return heap.Pop(h).(*schedTask) }
func (h rootHeap) peek() *schedTask   { return h[0] }
