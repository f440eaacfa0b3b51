package dask

import (
	"slices"
	"strings"

	"taskprov/internal/pfs"
	"taskprov/internal/platform"
	"taskprov/internal/posixio"
	"taskprov/internal/sim"
)

// assignment is the scheduler -> worker task dispatch message.
type assignment struct {
	spec     *TaskSpec
	graphID  int
	priority int
	deps     []depInfo
}

type depInfo struct {
	key     TaskKey
	size    int64
	holders []int // worker ranks
	// viaProxy marks a dependency published to the proxy store: the
	// assignment carries only a reference, and the payload is resolved
	// peer-to-peer from the blob owner (lazily at first use, or eagerly
	// when ProxyPrefetch is set).
	viaProxy bool
}

// wTask is the worker-side task state. A wTask is never reused: w.tasks[key]
// == wt is how a late callback tells whether its task is still the one in
// flight, so the worker carves them from slabs (newTask) instead of
// recycling them, and the task's execution context lives inside it.
type wTask struct {
	spec     *TaskSpec
	graphID  int
	priority int
	state    TaskState
	missing  int // dependency fetches still in flight
	// cancelled marks a losing speculative attempt: when the executing body
	// finishes it discards its result instead of storing, publishing, or
	// reporting it — the worker-side half of the attempt fence.
	cancelled bool
	// lazy holds proxied dependencies whose payloads have not been demanded
	// yet; they resolve when the task reaches the front of the ready queue.
	lazy []depInfo
	ctx  TaskContext // set when the task starts executing
}

// taskSlabLen is how many wTasks a worker carves from one allocation.
const taskSlabLen = 64

// fetchOp is one dependency fetch in flight: what is fetched, from where, and
// the tasks waiting on it. Each op has exactly one callback pending at a time
// — the connection delay, then the transfer — and goes back on the worker's
// free list when that callback ends it, so connect and land are method values
// bound once. A callback of a killed incarnation still fires, and recycles its
// op, after kill dropped the fetching map.
type fetchOp struct {
	w           *Worker
	d           depInfo
	src         *Worker
	size        int64
	inc, srcInc int
	demand      sim.Time
	wireStart   sim.Time
	waiters     []*wTask
	connect     func()
	land        func()
}

// thread is one of a worker's thread slots. execute hands the slot the task
// it starts and runs the slot's body, a method value bound once, as the
// task's process; the body takes the task off the slot as it starts, before
// anything can hand the slot another.
type thread struct {
	w    *Worker
	slot int
	wt   *wTask
	inc  int
	run  func(p *sim.Proc)
}

// heartbeatTimer is one pending heartbeat of one incarnation, recycled
// through the worker's free list once it fires.
type heartbeatTimer struct {
	w    *Worker
	inc  int
	fire func()
}

// Worker executes tasks on a fixed pool of threads, fetches remote
// dependencies, stores results in memory, and reports completions. It also
// models the two runtime pathologies the paper mines from worker logs: an
// event loop blocked by non-yielding task bodies, and garbage-collection
// pauses under memory churn.
type Worker struct {
	c      *Cluster
	rank   int
	addr   string
	node   *platform.Node
	tracer posixio.Tracer

	tasks       map[TaskKey]*wTask
	ready       taskHeap
	freeThreads []int
	threads     []thread // one per thread slot
	data        map[TaskKey]int64
	fetching    map[TaskKey]*fetchOp
	peers       map[int]bool // worker ranks we already hold a connection to

	// Recycled and carved structs of a task's life (see wTask, fetchOp,
	// heartbeatTimer), and the two callbacks every task and heartbeat of
	// this worker share, bound once.
	slab        []wTask
	freeFetches []*fetchOp
	freeBeats   []*heartbeatTimer
	dilation    func() float64
	beatArrives func()

	memBytes    int64
	gcAccum     int64
	gcBusyUntil sim.Time

	rng     *sim.RNG
	started bool

	// Crash/restart state: alive flips false when the worker process is
	// killed, and incarnation increments so callbacks scheduled by a dead
	// incarnation (heartbeats, transfer completions, task completions)
	// recognize themselves as stale and drop out.
	alive       bool
	incarnation int

	// slowFactor > 1 dilates this worker's compute and I/O service times —
	// chaos brownout injection ("slow worker=N ..."). It models the host
	// being degraded (thermal throttle, noisy neighbor), so it survives
	// process kill/restart cycles.
	slowFactor float64
}

func newWorker(c *Cluster, rank int, node *platform.Node, tracer posixio.Tracer) *Worker {
	w := &Worker{
		c: c, rank: rank, node: node, tracer: tracer,
		addr:     workerAddr(node.Hostname, rank),
		tasks:    make(map[TaskKey]*wTask),
		data:     make(map[TaskKey]int64),
		fetching: make(map[TaskKey]*fetchOp),
		peers:    make(map[int]bool),
		alive:    true,
		rng:      c.kernel.RNG("dask/worker/" + workerAddr(node.Hostname, rank)),

		slowFactor: 1,
	}
	w.dilation = func() float64 { return w.slowFactor }
	w.beatArrives = func() { w.c.scheduler.handleHeartbeat(w.rank) }
	w.threads = make([]thread, c.cfg.ThreadsPerWorker)
	for t := range w.threads {
		th := &w.threads[t]
		th.w, th.slot = w, t
		th.run = th.body
		w.freeThreads = append(w.freeThreads, t)
	}
	return w
}

// newTask carves a zeroed wTask from the worker's current slab.
func (w *Worker) newTask() *wTask {
	if len(w.slab) == 0 {
		w.slab = make([]wTask, taskSlabLen)
	}
	wt := &w.slab[0]
	w.slab = w.slab[1:]
	return wt
}

// Addr returns the worker's Dask-style address.
func (w *Worker) Addr() string { return w.addr }

// ThreadID returns the global "pthread ID" of the worker's thread slot,
// unique across the whole job so Darshan DXT records can be joined
// unambiguously.
func (w *Worker) ThreadID(slot int) uint64 {
	return uint64((w.rank+1)*1000 + slot)
}

// HasData reports whether the worker holds key's result.
func (w *Worker) HasData(key TaskKey) bool {
	_, ok := w.data[key]
	return ok
}

// start connects to the scheduler and begins heartbeats.
func (w *Worker) start() {
	if w.started || !w.alive {
		return
	}
	w.started = true
	w.c.control(w.node, w.c.scheduler.node, func() {
		w.c.scheduler.workerConnected(w.rank)
	})
	w.scheduleHeartbeat()
}

// kill models a hard worker-process crash: all worker-local state (task
// queue, thread pool, stored results, in-flight fetches, connections) is
// gone instantly. The scheduler only finds out through missed heartbeats.
func (w *Worker) kill() {
	if !w.alive {
		return
	}
	w.alive = false
	w.started = false
	w.incarnation++
	w.tasks = make(map[TaskKey]*wTask)
	w.ready = nil
	w.data = make(map[TaskKey]int64)
	w.fetching = make(map[TaskKey]*fetchOp)
	w.peers = make(map[int]bool)
	w.memBytes, w.gcAccum = 0, 0
	w.gcBusyUntil = 0
	w.freeThreads = w.freeThreads[:0]
	for t := 0; t < w.c.cfg.ThreadsPerWorker; t++ {
		w.freeThreads = append(w.freeThreads, t)
	}
}

// restart brings a killed worker back as a fresh process: it reconnects to
// the scheduler and resumes heartbeats, holding no data.
func (w *Worker) restart() {
	if w.alive {
		return
	}
	w.alive = true
	w.start()
}

func (w *Worker) scheduleHeartbeat() {
	inc := w.incarnation
	// Deterministic per-worker jitter desynchronizes heartbeat arrivals: a
	// batch of workers restarted at the same instant would otherwise tick —
	// and, on the TTL side, be declared dead — in one synchronized storm.
	period := w.rng.JitterTime(w.c.cfg.HeartbeatInterval, w.c.cfg.HeartbeatJitterCV)
	hb := sim.PopFree(&w.freeBeats)
	if hb == nil {
		hb = &heartbeatTimer{w: w}
		hb.fire = hb.beat
	}
	hb.inc = inc
	w.c.kernel.After(period, hb.fire)
}

func (hb *heartbeatTimer) beat() {
	w, inc := hb.w, hb.inc
	w.freeBeats = append(w.freeBeats, hb)
	if !w.alive || w.incarnation != inc {
		return
	}
	w.heartbeat()
}

func (w *Worker) heartbeat() {
	m := WorkerMetrics{
		Worker: w.addr, At: w.c.kernel.Now(),
		Memory: w.memBytes, Executing: w.c.cfg.ThreadsPerWorker - len(w.freeThreads),
		Ready: len(w.ready),
	}
	for _, p := range w.c.workerPlugins {
		p.Heartbeat(m)
	}
	w.c.control(w.node, w.c.scheduler.node, w.beatArrives)
	w.scheduleHeartbeat()
}

func (w *Worker) transition(wt *wTask, to TaskState, stimulus string) {
	from := wt.state
	wt.state = to
	w.c.emitWorkerTransition(Transition{
		Key: wt.spec.Key, From: from, To: to,
		Stimulus: stimulus, Location: w.addr, At: w.c.kernel.Now(),
	})
}

// handleAssign receives a task from the scheduler, fetches missing
// dependencies, and queues it for execution.
func (w *Worker) handleAssign(a assignment) {
	if !w.alive {
		// Assigned by a scheduler that has not yet noticed the crash; the
		// message lands on a dead process. Eviction will requeue the task.
		return
	}
	wt := w.newTask()
	wt.spec, wt.graphID, wt.priority, wt.state = a.spec, a.graphID, a.priority, StateReleased
	w.tasks[a.spec.Key] = wt
	w.transition(wt, WStateWaiting, "compute-task")
	for _, d := range a.deps {
		if _, local := w.data[d.key]; local {
			continue
		}
		if d.viaProxy && !w.c.cfg.ProxyPrefetch {
			// Pass-by-reference: defer the payload fetch until first use.
			wt.lazy = append(wt.lazy, d)
			continue
		}
		wt.missing++
		w.fetch(d, wt)
	}
	if wt.missing == 0 {
		w.makeReady(wt, "all-deps-local")
	} else {
		w.transition(wt, WStateFetching, "missing-deps")
	}
}

// fetch pulls one dependency's payload from a worker holding it; concurrent
// demands for the same key share one transfer.
func (w *Worker) fetch(d depInfo, wt *wTask) {
	if op := w.fetching[d.key]; op != nil {
		op.waiters = append(op.waiters, wt)
		return
	}
	op := sim.PopFree(&w.freeFetches)
	if op == nil {
		op = &fetchOp{w: w}
		op.connect, op.land = op.connected, op.landed
	}
	op.d = d
	op.waiters = append(op.waiters, wt)
	w.fetching[d.key] = op
	op.demand = w.c.kernel.Now()
	src, size, ok := w.source(op)
	if !ok {
		return
	}
	op.src, op.size = src, size
	op.inc, op.srcInc = w.incarnation, src.incarnation
	// First contact with this peer pays connection establishment; later
	// transfers reuse the connection. This makes small transfers early in
	// the run disproportionately slow (Fig. 5).
	setup := sim.Time(0)
	if !w.peers[src.rank] {
		w.peers[src.rank] = true
		setup = w.rng.JitterTime(w.c.cfg.ConnectionSetup, 0.4)
	}
	w.c.kernel.After(setup, op.connect)
}

// stale reports whether the incarnation that started op has died.
func (op *fetchOp) stale() bool {
	return !op.w.alive || op.w.incarnation != op.inc
}

// release puts op back on its worker's free list.
func (op *fetchOp) release() {
	clear(op.waiters)
	op.waiters = op.waiters[:0]
	op.d, op.src = depInfo{}, nil
	op.w.freeFetches = append(op.w.freeFetches, op)
}

// connected runs once the connection to the source is up: the payload starts
// across the wire, unless the source no longer holds it.
func (op *fetchOp) connected() {
	w, src := op.w, op.src
	if op.stale() {
		op.release()
		return
	}
	if !src.alive || src.incarnation != op.srcInc || !src.HasData(op.d.key) {
		w.abortFetch(op, src.rank)
		return
	}
	op.wireStart = w.c.kernel.Now()
	w.c.plat.Transfer(src.node, w.node, op.size, op.land)
}

// landed runs when the payload's last byte arrives: the result is stored and
// every waiter whose last missing dependency this was becomes ready.
func (op *fetchOp) landed() {
	w, src, d, size := op.w, op.src, op.d, op.size
	if op.stale() {
		op.release()
		return
	}
	if !src.alive || src.incarnation != op.srcInc {
		// Source crashed mid-transfer: the stream broke before the
		// payload fully arrived.
		w.abortFetch(op, src.rank)
		return
	}
	stop := w.c.kernel.Now()
	w.data[d.key] = size
	w.memBytes += size
	rec := Transfer{
		Key: d.key, From: src.addr, To: w.addr, Bytes: size,
		Start: op.demand, Stop: stop, SameNode: src.node == w.node,
	}
	if d.viaProxy {
		rec.Start, rec.ViaProxy, rec.ResolveLatency = op.wireStart, true, stop-op.demand
	}
	for _, p := range w.c.workerPlugins {
		p.TransferReceived(rec)
	}
	if d.viaProxy {
		w.c.proxy.resolved(d.key, w.addr, size, stop-op.demand)
	}
	delete(w.fetching, d.key)
	for _, waiter := range op.waiters {
		waiter.missing--
		if waiter.missing == 0 && w.tasks[waiter.spec.Key] == waiter {
			w.makeReady(waiter, "deps-arrived")
		}
	}
	op.release()
}

// source picks the worker to pull a dependency from and learns the payload's
// size. A direct dependency comes from one of the holders the assignment
// named. A proxied one is resolved in the store and comes from the blob's
// owner, fenced to the incarnation that published it; a dangling reference
// (blob reclaimed after the owner died) takes the same missing-data recovery
// path as a holder that crashed. ok is false when there is no source: the
// tasks waiting on the fetch have been surrendered and op released.
func (w *Worker) source(op *fetchOp) (src *Worker, size int64, ok bool) {
	d := op.d
	if len(d.holders) == 0 {
		// Scheduler.launch never ships such an assignment; were one to arrive,
		// the task cannot run here and is handed back.
		w.abortFetch(op, -1)
		return nil, 0, false
	}
	if !d.viaProxy {
		return w.c.workers[d.holders[w.rng.Intn(len(d.holders))]], d.size, true
	}
	ref, found := w.c.proxy.resolve(d.key, w.addr)
	if !found {
		w.abortFetch(op, d.holders[0])
		return nil, 0, false
	}
	src = w.c.workers[ref.Owner]
	if !src.alive || src.incarnation != ref.Incarnation || !src.HasData(d.key) {
		// A restarted owner no longer holds the payload.
		w.abortFetch(op, src.rank)
		return nil, 0, false
	}
	return src, ref.Size, true
}

// abortFetch gives up on an in-flight dependency fetch whose source worker
// crashed (srcRank < 0: the assignment named no source). The tasks waiting on
// the dependency cannot run here with the holder snapshot they were assigned,
// so the worker surrenders them and reports the dead source; the scheduler
// re-plans them against surviving replicas (or recomputes the lost key). The
// fetch ends here: op goes back on the free list.
func (w *Worker) abortFetch(op *fetchOp, srcRank int) {
	delete(w.fetching, op.d.key)
	var surrendered []TaskKey
	for _, wt := range op.waiters {
		if w.tasks[wt.spec.Key] != wt {
			continue // already stolen or surrendered via another dep
		}
		delete(w.tasks, wt.spec.Key)
		w.transition(wt, StateReleased, "missing-data")
		surrendered = append(surrendered, wt.spec.Key)
	}
	op.release()
	rank := w.rank
	w.c.control(w.node, w.c.scheduler.node, func() {
		w.c.scheduler.handleMissingData(rank, srcRank, surrendered)
	})
}

func (w *Worker) makeReady(wt *wTask, stimulus string) {
	w.transition(wt, WStateReady, stimulus)
	w.ready.pushTask(wt)
	w.dispatch()
}

// dispatch starts ready tasks on free threads, deferring while a GC pause
// holds the process.
func (w *Worker) dispatch() {
	now := w.c.kernel.Now()
	if w.gcBusyUntil > now {
		inc := w.incarnation
		w.c.kernel.At(w.gcBusyUntil, func() {
			if w.alive && w.incarnation == inc {
				w.dispatch()
			}
		})
		return
	}
	for len(w.freeThreads) > 0 && w.ready.Len() > 0 {
		wt := w.ready.popTask()
		if len(wt.lazy) > 0 {
			// First use of the task's pass-by-reference dependencies: demand
			// the payloads now; the task re-enters the ready queue when they
			// arrive.
			w.resolveLazy(wt)
			continue
		}
		slot := w.freeThreads[len(w.freeThreads)-1]
		w.freeThreads = w.freeThreads[:len(w.freeThreads)-1]
		w.execute(wt, slot)
	}
}

// resolveLazy demands the payloads of a task's deferred proxied
// dependencies. Payloads that landed in the meantime (another task on this
// worker demanded the same key) are skipped; if everything is already local
// the task goes straight back to ready.
func (w *Worker) resolveLazy(wt *wTask) {
	lazy := wt.lazy
	wt.lazy = nil
	var needed []depInfo
	for _, d := range lazy {
		if _, local := w.data[d.key]; local {
			continue
		}
		needed = append(needed, d)
	}
	if len(needed) == 0 {
		w.makeReady(wt, "proxy-deps-local")
		return
	}
	wt.missing = len(needed)
	w.transition(wt, WStateFetching, "proxy-resolve")
	for _, d := range needed {
		w.fetch(d, wt)
	}
}

func (w *Worker) execute(wt *wTask, slot int) {
	w.transition(wt, WStateExecuting, "thread-available")
	th := &w.threads[slot]
	th.wt, th.inc = wt, w.incarnation
	w.c.kernel.Go(th.run)
}

// body is a thread slot's process body: it runs the task execute handed the
// slot and reports how it ended.
func (th *thread) body(p *sim.Proc) {
	w, wt, inc, slot := th.w, th.wt, th.inc, th.slot
	th.wt = nil
	start := p.Now()
	tid := w.ThreadID(slot)
	wt.ctx = TaskContext{w: w, proc: p, tid: tid, spec: wt.spec, outputSize: wt.spec.OutputSize}
	ctx := &wt.ctx
	if wt.spec.Run != nil {
		wt.spec.Run(ctx)
	} else {
		d := wt.spec.EstDuration
		if d <= 0 {
			d = w.c.cfg.DefaultTaskDuration
		}
		ctx.Compute(d)
	}
	stop := p.Now()

	if !w.alive || w.incarnation != inc {
		// The worker process died while the task body was running: the
		// thread, the result, and the completion report die with it. The
		// scheduler recovers the task through eviction.
		return
	}

	if wt.cancelled {
		// Losing speculative attempt, cancelled while executing: discard
		// the result without storing, publishing, or reporting it — the
		// worker-side fence that keeps exactly one visible execution per
		// key.
		delete(w.tasks, wt.spec.Key)
		w.transition(wt, StateReleased, "speculation-cancelled")
		w.freeThreads = append(w.freeThreads, slot)
		w.dispatch()
		return
	}

	if ctx.failure != "" {
		// The task body raised: report the error instead of a result
		// (Dask's task-erred path). The thread is released; the
		// scheduler decides between retry and erred.
		w.transition(wt, StateErred, "task-erred")
		delete(w.tasks, wt.spec.Key)
		w.freeThreads = append(w.freeThreads, slot)
		w.dispatch()
		key, msg := wt.spec.Key, ctx.failure
		w.c.control(w.node, w.c.scheduler.node, func() {
			w.c.scheduler.handleErred(w.rank, key, msg)
		})
		return
	}

	w.data[wt.spec.Key] = ctx.outputSize
	w.memBytes += ctx.outputSize
	w.transition(wt, WStateMemory, "task-done")
	rec := TaskExecution{
		Key: wt.spec.Key, Worker: w.addr, Hostname: w.node.Hostname,
		ThreadID: tid, Start: start, Stop: stop,
		OutputSize: ctx.outputSize, GraphID: wt.graphID,
		Files: ctx.fileEffects(),
	}
	for _, pl := range w.c.workerPlugins {
		pl.TaskExecuted(rec)
	}
	w.maybeGC(ctx.outputSize)

	w.freeThreads = append(w.freeThreads, slot)
	w.dispatch()
	key, size, dur := wt.spec.Key, ctx.outputSize, stop-start
	proxied := false
	if w.c.proxy != nil && size >= w.c.cfg.ProxyThresholdBytes {
		// Publish the output as a pass-by-reference blob owned by this
		// incarnation; the completion report ships only the reference.
		proxied = true
		w.c.proxy.publish(key, w.rank, inc, size, w.addr)
		w.c.addControlBytes(w.c.cfg.ProxyRefBytes)
	}
	w.c.scheduler.reportFinished(w.node, w.rank, key, size, dur, proxied)
}

// maybeGC models CPython GC pressure: every GCThresholdBytes of allocation
// churn triggers a collection whose pause scales with the held heap. The
// pause delays task dispatch and is logged as a worker warning — the
// paper's Fig. 7 "gc_collection" series.
func (w *Worker) maybeGC(newBytes int64) {
	w.gcAccum += newBytes
	if w.gcAccum < w.c.cfg.GCThresholdBytes {
		return
	}
	w.gcAccum = 0
	pause := w.c.cfg.GCPauseBase + sim.Time(float64(w.c.cfg.GCPausePerGiB)*float64(w.memBytes)/float64(1<<30))
	now := w.c.kernel.Now()
	if w.gcBusyUntil < now {
		w.gcBusyUntil = now
	}
	w.gcBusyUntil += pause
	warn := Warning{
		Kind: WarnGC, Worker: w.addr, Hostname: w.node.Hostname,
		At: now, Duration: pause,
		Message: "full garbage collection took " + pause.String(),
	}
	for _, p := range w.c.workerPlugins {
		p.WorkerWarning(warn)
	}
}

// handleFree releases a stored result (scheduler-driven refcount release).
// The broadcast reaches every worker, most of which hold nothing for the key:
// a task in memory here has its result in data, so a miss there answers it.
func (w *Worker) handleFree(key TaskKey) {
	if !w.alive {
		return
	}
	size, ok := w.data[key]
	if !ok {
		return
	}
	delete(w.data, key)
	w.memBytes -= size
	if wt, ok := w.tasks[key]; ok && wt.state == WStateMemory {
		w.transition(wt, StateReleased, "free-keys")
		delete(w.tasks, key)
	}
}

// withdraw takes a task that has not started executing off this worker and
// reports whether it could: a ready task leaves the queue; one still waiting
// on dependencies is dropped, and its in-flight transfers simply land as
// cached data.
func (w *Worker) withdraw(wt *wTask, stimulus string) bool {
	switch wt.state {
	case WStateReady:
		if !w.ready.remove(wt) {
			return false
		}
	case WStateWaiting, WStateFetching:
	default:
		return false
	}
	delete(w.tasks, wt.spec.Key)
	w.transition(wt, StateReleased, stimulus)
	return true
}

// handleCancel withdraws a losing speculative attempt. A queued attempt is
// withdrawn like a stolen task; an executing attempt is flagged so its body
// discards the result on completion; an attempt that already reached memory
// (the cancel raced the completion report, which the scheduler drops) has
// its stray local replica freed. The proxy-store publish of a raced loser is
// rejected by the store's first-write-wins dedupe, so no path lets a
// cancelled attempt's output become visible.
func (w *Worker) handleCancel(key TaskKey) {
	if !w.alive {
		return
	}
	wt, ok := w.tasks[key]
	if !ok {
		return // never assigned here, or already surrendered
	}
	switch wt.state {
	case WStateExecuting:
		wt.cancelled = true
	case WStateMemory:
		if size, held := w.data[key]; held {
			delete(w.data, key)
			w.memBytes -= size
		}
		delete(w.tasks, key)
		w.transition(wt, StateReleased, "speculation-cancelled")
	default:
		w.withdraw(wt, "speculation-cancelled")
	}
}

// handleStealRequest reports whether the task could be surrendered (it must
// still be queued, not executing or done).
func (w *Worker) handleStealRequest(key TaskKey) bool {
	wt, ok := w.tasks[key]
	return ok && w.alive && w.withdraw(wt, "steal-request")
}

// noteEventLoopBlocked records that a task body held the worker's event
// loop for [from, to), emitting one "unresponsive event loop" warning per
// monitor threshold crossed — matching how Tornado's monitor logs repeat
// while the loop stays wedged. Each GIL-holding segment reports its own
// episode (concurrent holders each delay the loop in turn).
func (w *Worker) noteEventLoopBlocked(from, to sim.Time) {
	thr := w.c.cfg.EventLoopMonitorThreshold
	inc := w.incarnation
	for t := from + thr; t <= to; t += thr {
		at := t
		blockedFor := at - from
		w.c.kernel.At(at, func() {
			if !w.alive || w.incarnation != inc {
				return
			}
			warn := Warning{
				Kind: WarnEventLoop, Worker: w.addr, Hostname: w.node.Hostname,
				At: at, Duration: blockedFor,
				Message: "event loop was unresponsive for " + blockedFor.String(),
			}
			for _, p := range w.c.workerPlugins {
				p.WorkerWarning(warn)
			}
		})
	}
}

// TaskContext is the execution context handed to task bodies.
type TaskContext struct {
	w          *Worker
	proc       *sim.Proc
	tid        uint64
	spec       *TaskSpec
	outputSize int64
	failure    string
	// wrotePaths collects the paths the body opened for writing, in open
	// order (deduplicated), so the completion record can carry the task's
	// filesystem effects.
	wrotePaths []string
}

// Proc returns the simulation process executing this task, for use with
// blocking primitives like posixio file methods.
func (ctx *TaskContext) Proc() *sim.Proc { return ctx.proc }

// RNG returns a deterministic stream unique to this task key, so task-level
// randomness reproduces per seed without cross-task coupling.
func (ctx *TaskContext) RNG() *sim.RNG {
	return ctx.w.c.kernel.RNG("task/" + string(ctx.spec.Key))
}

// SetOutputSize overrides the task's result size in distributed memory.
func (ctx *TaskContext) SetOutputSize(n int64) { ctx.outputSize = n }

// Compute spends nominal CPU time: scaled by the node's speed factor,
// jittered by the configured OS-noise CV, and — for event-loop-blocking
// tasks — feeding the unresponsive-loop monitor.
func (ctx *TaskContext) Compute(nominal sim.Time) {
	d := ctx.w.node.ComputeDuration(nominal)
	if f := ctx.w.slowFactor; f > 1 {
		// Brownout: the host is degraded, every compute segment stretches.
		d = sim.Time(float64(d) * f)
	}
	if cv := ctx.w.c.cfg.ComputeJitterCV; cv > 0 {
		d = ctx.w.rng.JitterTime(d, cv)
	}
	if ctx.spec.BlocksEventLoop {
		now := ctx.proc.Now()
		ctx.w.noteEventLoopBlocked(now, now+d)
	}
	ctx.proc.Sleep(d)
}

// Open opens a file through the cluster's instrumented POSIX layer on
// behalf of this task's thread.
func (ctx *TaskContext) Open(path string, flags int) (*posixio.File, error) {
	if flags&(posixio.WRONLY|posixio.CREATE) != 0 {
		norm := pfs.Normalize(path)
		seen := false
		for _, p := range ctx.wrotePaths {
			if p == norm {
				seen = true
				break
			}
		}
		if !seen {
			ctx.wrotePaths = append(ctx.wrotePaths, norm)
		}
	}
	f, err := ctx.w.c.fs.Open(ctx.proc, ctx.w.tracer, ctx.tid, path, flags)
	if err != nil {
		return nil, err
	}
	// A browned-out worker's I/O service time dilates along with its
	// compute; the factor is sampled per operation so a mid-task slowdown
	// (or recovery) takes effect immediately.
	f.SetDilation(ctx.w.dilation)
	return f, nil
}

// fileEffects snapshots the sizes of every file this task opened for
// writing, sorted by path — the write-side filesystem effects recorded on
// the execution record so resumption can replay them without re-running the
// body.
func (ctx *TaskContext) fileEffects() []FileEffect {
	if len(ctx.wrotePaths) == 0 {
		return nil
	}
	effects := make([]FileEffect, 0, len(ctx.wrotePaths))
	fsys := ctx.w.c.fs.PFS()
	for _, p := range ctx.wrotePaths {
		size := int64(0)
		if f := fsys.Lookup(p); f != nil {
			size = f.Size
		}
		effects = append(effects, FileEffect{Path: p, SizeAfter: size})
	}
	slices.SortFunc(effects, func(a, b FileEffect) int { return strings.Compare(a.Path, b.Path) })
	return effects
}

// Measure runs a real Go function on the executing thread and charges its
// wall-clock duration to the virtual clock — the bridge that lets example
// programs run genuine computations under full instrumentation.
func (ctx *TaskContext) Measure(fn func()) {
	startWall := nowWall()
	fn()
	elapsed := nowWall() - startWall
	if elapsed < 0 {
		elapsed = 0
	}
	if f := ctx.w.slowFactor; f > 1 {
		elapsed = int64(float64(elapsed) * f)
	}
	if ctx.spec.BlocksEventLoop {
		now := ctx.proc.Now()
		ctx.w.noteEventLoopBlocked(now, now+sim.Time(elapsed))
	}
	ctx.proc.Sleep(sim.Time(elapsed))
}
