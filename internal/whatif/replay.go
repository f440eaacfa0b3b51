package whatif

import (
	"container/heap"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Scenario is a perturbation of the measured configuration. Zero values
// mean "unchanged".
type Scenario struct {
	// Workers is the total worker count (0 = unchanged). Changing it forces
	// re-placement mode: tasks lose their measured pinning and are placed
	// by the simulator's list scheduler.
	Workers int
	// ThreadsPerWorker is the per-worker thread count (0 = unchanged).
	ThreadsPerWorker int
	// NetBandwidthScale multiplies interconnect speed (0 = 1.0): transfer
	// and proxy-resolve times divide by it.
	NetBandwidthScale float64
	// PFSScale multiplies parallel-file-system speed (0 = 1.0): per-task
	// I/O time divides by it.
	PFSScale float64
	// ProxyThresholdBytes moves the pass-by-reference threshold: 0 =
	// unchanged, < 0 = disable the proxy plane (all transfers direct).
	ProxyThresholdBytes int64
	// StealEnabled overrides work stealing (nil = unchanged). Changing it
	// forces re-placement mode.
	StealEnabled *bool
}

// String renders the scenario in ParseScenario's syntax.
func (s Scenario) String() string {
	var parts []string
	if s.Workers != 0 {
		parts = append(parts, fmt.Sprintf("workers=%d", s.Workers))
	}
	if s.ThreadsPerWorker != 0 {
		parts = append(parts, fmt.Sprintf("threads=%d", s.ThreadsPerWorker))
	}
	if s.NetBandwidthScale != 0 && s.NetBandwidthScale != 1 {
		parts = append(parts, fmt.Sprintf("net=%g", s.NetBandwidthScale))
	}
	if s.PFSScale != 0 && s.PFSScale != 1 {
		parts = append(parts, fmt.Sprintf("pfs=%g", s.PFSScale))
	}
	if s.ProxyThresholdBytes < 0 {
		parts = append(parts, "proxy=off")
	} else if s.ProxyThresholdBytes > 0 {
		parts = append(parts, fmt.Sprintf("proxy=%d", s.ProxyThresholdBytes))
	}
	if s.StealEnabled != nil {
		if *s.StealEnabled {
			parts = append(parts, "steal=on")
		} else {
			parts = append(parts, "steal=off")
		}
	}
	if len(parts) == 0 {
		return "baseline"
	}
	return strings.Join(parts, " ")
}

// ParseScenario parses "workers=8 threads=4 net=0.5 pfs=2 proxy=1048576
// steal=off" (space- or comma-separated; "baseline" or "" is the unchanged
// scenario; proxy accepts a byte count or "off").
func ParseScenario(s string) (Scenario, error) {
	var out Scenario
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' })
	for _, f := range fields {
		if f == "baseline" {
			continue
		}
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return out, fmt.Errorf("whatif: scenario term %q is not key=value", f)
		}
		switch k {
		case "workers":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return out, fmt.Errorf("whatif: bad workers %q", v)
			}
			out.Workers = n
		case "threads":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return out, fmt.Errorf("whatif: bad threads %q", v)
			}
			out.ThreadsPerWorker = n
		case "net":
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || x <= 0 {
				return out, fmt.Errorf("whatif: bad net scale %q", v)
			}
			out.NetBandwidthScale = x
		case "pfs":
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || x <= 0 {
				return out, fmt.Errorf("whatif: bad pfs scale %q", v)
			}
			out.PFSScale = x
		case "proxy":
			if v == "off" {
				out.ProxyThresholdBytes = -1
				break
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return out, fmt.Errorf("whatif: bad proxy threshold %q", v)
			}
			out.ProxyThresholdBytes = n
		case "steal":
			switch v {
			case "on", "true":
				t := true
				out.StealEnabled = &t
			case "off", "false":
				f := false
				out.StealEnabled = &f
			default:
				return out, fmt.Errorf("whatif: bad steal %q (on/off)", v)
			}
		default:
			return out, fmt.Errorf("whatif: unknown scenario knob %q (workers, threads, net, pfs, proxy, steal)", k)
		}
	}
	return out, nil
}

// Result is one replay prediction.
type Result struct {
	Scenario string `json:"scenario"`
	// Mode is "pinned" (topology unchanged: tasks keep their measured
	// placement) or "replaced" (the list scheduler re-places every task).
	Mode string `json:"mode"`

	MeasuredMakespanSeconds  float64 `json:"measured_makespan_seconds"`
	PredictedMakespanSeconds float64 `json:"predicted_makespan_seconds"`
	DeltaSeconds             float64 `json:"delta_seconds"`
	DeltaFraction            float64 `json:"delta_fraction"`

	MeasuredUtilization  float64 `json:"measured_utilization"`
	PredictedUtilization float64 `json:"predicted_utilization"`

	Tasks   int `json:"tasks"`
	Workers int `json:"workers"`
	Threads int `json:"threads"`
}

// simEvent is one pending discrete event.
type simEvent struct {
	at   float64
	kind int // 0 = task ready, 1 = task finish, 2 = graph available
	id   int // task index or graph position
	seq  int // FIFO tie-break for determinism
}

type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(a, b int) bool {
	if h[a].at != h[b].at {
		return h[a].at < h[b].at
	}
	if h[a].kind != h[b].kind {
		return h[a].kind < h[b].kind
	}
	return h[a].seq < h[b].seq
}
func (h eventHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// readyItem is a task waiting for a slot, prioritized by its measured start
// (preserving the run's scheduling order), then key for determinism.
type readyItem struct {
	task     int
	priority float64
}

type readyQueue struct {
	m     *Model
	items []readyItem
}

func (q readyQueue) Len() int { return len(q.items) }
func (q readyQueue) Less(a, b int) bool {
	ia, ib := q.items[a], q.items[b]
	if ia.priority != ib.priority {
		return ia.priority < ib.priority
	}
	return q.m.Tasks[ia.task].Key < q.m.Tasks[ib.task].Key
}
func (q readyQueue) Swap(a, b int) { q.items[a], q.items[b] = q.items[b], q.items[a] }
func (q *readyQueue) Push(x any)   { q.items = append(q.items, x.(readyItem)) }
func (q *readyQueue) Pop() any {
	old := q.items
	n := len(old)
	x := old[n-1]
	q.items = old[:n-1]
	return x
}

// Replay re-executes the model's DAG under the scenario and predicts the
// makespan. Time starts at zero (relative to the measured run start).
func (m *Model) Replay(s Scenario) (*Result, error) {
	if len(m.Tasks) == 0 {
		return nil, fmt.Errorf("whatif: empty model")
	}
	netScale := s.NetBandwidthScale
	if netScale == 0 {
		netScale = 1
	}
	pfsScale := s.PFSScale
	if pfsScale == 0 {
		pfsScale = 1
	}
	threads := m.ThreadsPerWorker
	if s.ThreadsPerWorker != 0 {
		threads = s.ThreadsPerWorker
	}
	if threads < 1 {
		threads = 1
	}
	threshold := m.ProxyThreshold
	if s.ProxyThresholdBytes < 0 {
		threshold = 0
	} else if s.ProxyThresholdBytes > 0 {
		threshold = s.ProxyThresholdBytes
	}
	steal := m.StealEnabled
	if s.StealEnabled != nil {
		steal = *s.StealEnabled
	}

	// Pinned mode keeps the measured placement; changing the topology or
	// the stealing policy invalidates it and engages the list scheduler.
	pinned := s.Workers == 0 && s.ThreadsPerWorker == 0 && s.StealEnabled == nil

	// The simulated worker set.
	workers := m.Workers
	host := m.WorkerHost
	if s.Workers != 0 && s.Workers != len(m.Workers) {
		workers = make([]string, s.Workers)
		host = make(map[string]string, s.Workers)
		// Spread synthetic workers round-robin over the measured node set
		// (or synthetic nodes when the run had none).
		nodes := m.nodeList()
		for i := range workers {
			workers[i] = fmt.Sprintf("sim://w%03d", i)
			host[workers[i]] = nodes[i%len(nodes)]
		}
	}
	widx := make(map[string]int, len(workers))
	for i, w := range workers {
		widx[w] = i
	}

	n := len(m.Tasks)
	place := make([]int, n) // worker index per task (pinned mode)
	if pinned {
		for i := range m.Tasks {
			wi, ok := widx[m.Tasks[i].Worker]
			if !ok {
				return nil, fmt.Errorf("whatif: task %s on unknown worker %s", m.Tasks[i].Key, m.Tasks[i].Worker)
			}
			place[i] = wi
		}
	} else {
		for i := range place {
			place[i] = -1
		}
	}

	// Per-task scenario durations, split so the proxy plane can move
	// between the lazy (in-window) and eager (pre-start) positions.
	execBase := make([]float64, n) // compute + scaled IO
	for i := range m.Tasks {
		t := &m.Tasks[i]
		execBase[i] = t.ComputeSeconds + t.IOSeconds/pfsScale
	}
	proxied := func(d int) bool {
		return threshold > 0 && m.Tasks[d].OutputBytes >= threshold
	}

	// Graph availability: graphs become available DelaySeconds after their
	// prerequisites complete in simulated time.
	gpos := make(map[int]int, len(m.Graphs))
	for i, g := range m.Graphs {
		gpos[g.ID] = i
	}
	gRemaining := make([]int, len(m.Graphs))
	gPrereqLeft := make([]int, len(m.Graphs))
	gDone := make([]float64, len(m.Graphs))
	gAvail := make([]float64, len(m.Graphs))
	gWaiters := make([][]int, len(m.Graphs)) // graph positions waiting on this graph
	for i, g := range m.Graphs {
		gRemaining[i] = g.Tasks
		gPrereqLeft[i] = len(g.Prereqs)
		gAvail[i] = -1
		for _, p := range g.Prereqs {
			if pp, ok := gpos[p]; ok {
				gWaiters[pp] = append(gWaiters[pp], i)
			} else {
				gPrereqLeft[i]--
			}
		}
	}

	pending := make([]int, n) // unfinished dep count
	dependents := make([][]int, n)
	for i := range m.Tasks {
		pending[i] = len(m.Tasks[i].Deps)
		for _, d := range m.Tasks[i].Deps {
			dependents[d] = append(dependents[d], i)
		}
	}

	finish := make([]float64, n)
	started := make([]bool, n)
	arrival := make(map[EdgeKey]float64) // fetched dep cache per worker

	events := &eventHeap{}
	seq := 0
	push := func(at float64, kind, id int) {
		heap.Push(events, simEvent{at: at, kind: kind, id: id, seq: seq})
		seq++
	}

	free := make([]int, len(workers))
	for i := range free {
		free[i] = threads
	}
	queues := make([]*readyQueue, len(workers))
	for i := range queues {
		queues[i] = &readyQueue{m: m}
	}
	global := &readyQueue{m: m} // re-placement pool (steal=on)

	var busySeconds float64
	clock := 0.0
	finished := 0

	// fetchReady computes when task i's inputs are on worker wi, starting
	// the missing fetches at time t0 (deps fetch concurrently; a dep already
	// fetched to the worker is reused).
	fetchReady := func(i, wi int, t0 float64) float64 {
		w := workers[wi]
		ready := t0
		for _, d := range m.Tasks[i].Deps {
			if proxied(d) {
				continue // lazy: resolves inside the window
			}
			var from string
			if pinned {
				from = m.Tasks[d].Worker
			} else if place[d] >= 0 {
				from = workers[place[d]]
			}
			if from == w {
				continue
			}
			k := EdgeKey{Task: d, To: w}
			arr, ok := arrival[k]
			if !ok {
				arr = t0 + m.edgeCost(d, from, w, netScale)
				arrival[k] = arr
			}
			if arr > ready {
				ready = arr
			}
		}
		return ready
	}

	execSeconds := func(i, wi int) float64 {
		d := execBase[i]
		for _, dep := range m.Tasks[i].Deps {
			if proxied(dep) {
				d += m.proxyCost(dep, workers[wi], netScale)
			}
		}
		return d
	}

	launch := func(i, wi int, at float64) {
		place[i] = wi
		started[i] = true
		free[wi]--
		d := execSeconds(i, wi)
		busySeconds += d
		finish[i] = at + d
		push(finish[i], 1, i)
	}

	// dispatch drains a worker's queue (and, with stealing, the global pool)
	// while it has free slots.
	dispatch := func(wi int, now float64) {
		for free[wi] > 0 {
			var it readyItem
			switch {
			case pinned:
				if queues[wi].Len() == 0 {
					return
				}
				it = heap.Pop(queues[wi]).(readyItem)
			case steal:
				if global.Len() == 0 {
					return
				}
				it = heap.Pop(global).(readyItem)
			default:
				if queues[wi].Len() == 0 {
					return
				}
				it = heap.Pop(queues[wi]).(readyItem)
			}
			i := it.task
			at := now
			if !pinned {
				// Placement-time fetch: inputs stream to the chosen worker
				// as the task is assigned.
				at = fetchReady(i, wi, now)
			}
			launch(i, wi, at)
		}
	}
	dispatchAll := func(now float64) {
		for wi := range workers {
			dispatch(wi, now)
		}
	}

	// taskReady enqueues a ready task: on its pinned worker's queue, the
	// global pool (stealing), or the statically best worker's queue.
	taskReady := func(i int, now float64) {
		prio := m.Tasks[i].Start // measured order preserved
		switch {
		case pinned:
			wi := place[i]
			heap.Push(queues[wi], readyItem{task: i, priority: prio})
			dispatch(wi, now)
		case steal:
			heap.Push(global, readyItem{task: i, priority: prio})
			dispatchAll(now)
		default:
			// Static placement: min over workers of (earliest slot guess,
			// data arrival) — a deterministic ETF-style choice.
			best, bestWi := 0.0, -1
			for wi := range workers {
				est := fetchEstimate(m, i, wi, workers, place, pinned, netScale, proxied)
				if bestWi < 0 || est < best {
					best, bestWi = est, wi
				}
			}
			heap.Push(queues[bestWi], readyItem{task: i, priority: prio})
			dispatch(bestWi, now)
		}
	}

	// Seed: graphs with no (known) prerequisites become available after
	// their measured client delay.
	for i, g := range m.Graphs {
		if gPrereqLeft[i] == 0 {
			push(g.DelaySeconds, 2, i)
		}
	}
	if len(m.Graphs) == 0 {
		// Degenerate stream without graph info: everything roots at zero.
		for i := range m.Tasks {
			if pending[i] == 0 {
				push(m.Cost.DispatchSeconds, 0, i)
			}
		}
	}

	for events.Len() > 0 {
		ev := heap.Pop(events).(simEvent)
		clock = ev.at
		switch ev.kind {
		case 2: // graph available
			gi := ev.id
			gAvail[gi] = clock
			for i := range m.Tasks {
				if gp, ok := gpos[m.Tasks[i].GraphID]; ok && gp == gi && pending[i] == 0 {
					push(clock+m.Cost.DispatchSeconds, 0, i)
				}
			}
		case 0: // task ready (deps done + graph available + dispatch)
			i := ev.id
			if started[i] {
				break
			}
			if pinned {
				wi := place[i]
				at := fetchReady(i, wi, clock)
				if at > clock {
					// Inputs still in flight: re-arm at arrival.
					push(at, 0, i)
					break
				}
			}
			taskReady(i, clock)
		case 1: // task finish
			i := ev.id
			finished++
			wi := place[i]
			free[wi]++
			// Graph bookkeeping.
			if gi, ok := gpos[m.Tasks[i].GraphID]; ok {
				gRemaining[gi]--
				if gRemaining[gi] == 0 {
					gDone[gi] = clock
					for _, w := range gWaiters[gi] {
						gPrereqLeft[w]--
						if gPrereqLeft[w] == 0 {
							push(clock+m.Graphs[w].DelaySeconds, 2, w)
						}
					}
				}
			}
			// Dependents.
			for _, j := range dependents[i] {
				pending[j]--
				if pending[j] != 0 {
					continue
				}
				if gi, ok := gpos[m.Tasks[j].GraphID]; ok && gAvail[gi] < 0 {
					continue // graph not yet submitted
				}
				push(clock+m.Cost.DispatchSeconds, 0, j)
			}
			if pinned {
				dispatch(wi, clock)
			} else if steal {
				dispatchAll(clock)
			} else {
				dispatch(wi, clock)
			}
		}
	}

	if finished != n {
		return nil, fmt.Errorf("whatif: replay stalled at %d/%d tasks (inconsistent stream?)", finished, n)
	}

	makespan := clock
	slots := float64(len(workers) * threads)
	r := &Result{
		Scenario:                 s.String(),
		MeasuredMakespanSeconds:  m.MakespanSeconds,
		PredictedMakespanSeconds: makespan,
		DeltaSeconds:             makespan - m.MakespanSeconds,
		Tasks:                    n,
		Workers:                  len(workers),
		Threads:                  threads,
	}
	if pinned {
		r.Mode = "pinned"
	} else {
		r.Mode = "replaced"
	}
	if m.MakespanSeconds > 0 {
		r.DeltaFraction = r.DeltaSeconds / m.MakespanSeconds
	}
	if makespan > 0 && slots > 0 {
		r.PredictedUtilization = busySeconds / (slots * makespan)
	}
	// Measured utilization over the measured slot pool.
	mslots := float64(len(m.Workers) * m.ThreadsPerWorker)
	if m.MakespanSeconds > 0 && mslots > 0 {
		var busy float64
		for i := range m.Tasks {
			busy += m.Tasks[i].DurationSeconds()
		}
		r.MeasuredUtilization = busy / (mslots * m.MakespanSeconds)
	}
	return r, nil
}

// fetchEstimate scores placing task i on worker wi: the max direct-plane
// arrival of its deps, used by the static placer.
func fetchEstimate(m *Model, i, wi int, workers []string, place []int, pinned bool, netScale float64, proxied func(int) bool) float64 {
	w := workers[wi]
	est := 0.0
	for _, d := range m.Tasks[i].Deps {
		if proxied(d) {
			continue
		}
		var from string
		if place[d] >= 0 {
			from = workers[place[d]]
		}
		if from == w {
			continue
		}
		est += m.edgeCost(d, from, w, netScale)
	}
	return est
}

// nodeList is the distinct measured hostnames (sorted), or a synthetic node
// when the stream carried none.
func (m *Model) nodeList() []string {
	set := map[string]struct{}{}
	for _, h := range m.WorkerHost {
		if h != "" {
			set[h] = struct{}{}
		}
	}
	if len(set) == 0 {
		return []string{"sim-node0"}
	}
	out := make([]string, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}
