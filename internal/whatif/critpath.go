package whatif

import (
	"fmt"
	"sort"
	"strings"
)

// Attribution categories on the critical path.
const (
	CatCompute   = "compute"
	CatIO        = "io"
	CatTransfer  = "transfer"
	CatScheduler = "scheduler"
	CatProxy     = "proxy"
)

// Categories lists the attribution categories in render order.
func Categories() []string {
	return []string{CatCompute, CatTransfer, CatIO, CatScheduler, CatProxy}
}

// CritTask is one step of the critical path: the task's execution window
// decomposed by category, plus the wait that preceded its start — split into
// the data-transfer portion and the scheduler portion (dispatch, slot
// queueing, client think time).
type CritTask struct {
	Key    string
	Prefix string
	Worker string

	Start, Stop float64

	ComputeSeconds float64
	IOSeconds      float64
	ProxySeconds   float64

	WaitTransferSeconds  float64
	WaitSchedulerSeconds float64

	// Reason says what released this step: "dep" (data dependency), "slot"
	// (waited for the thread to free), "submit" (graph submission), or
	// "start" (first task of the run).
	Reason string
}

// CritPath is the critical path of the executed schedule: the chain of
// tasks and waits that determined the makespan, with a category attribution
// that sums exactly to the makespan.
type CritPath struct {
	GraphID         int // -1 for the whole run
	MakespanSeconds float64
	Tasks           []CritTask
	Categories      map[string]float64

	// Coverage is attributed seconds / makespan; 1.0 by construction unless
	// the chain walk hit an inconsistent stream.
	Coverage float64
}

// CriticalSeconds sums the attributed categories, in render order: a float
// sum in map order differs in its last bits from one call to the next.
func (c *CritPath) CriticalSeconds() float64 {
	var s float64
	for _, cat := range Categories() {
		s += c.Categories[cat]
	}
	return s
}

// CriticalPath extracts the whole-run critical path: the chain of tasks and
// waits from run start to the last task completion.
func (m *Model) CriticalPath() *CritPath {
	return m.criticalPath(-1)
}

// GraphCriticalPath extracts the critical path of one task graph, from its
// submission to its last task completion.
func (m *Model) GraphCriticalPath(graphID int) *CritPath {
	return m.criticalPath(graphID)
}

// criticalPath walks backward from the last-finishing task, at each step
// choosing the latest "release": the dependency whose data arrived last, the
// previous occupant of the same worker thread, or the graph submission.
// Restricting to graphID >= 0 scopes the walk to one graph.
func (m *Model) criticalPath(graphID int) *CritPath {
	cp := &CritPath{GraphID: graphID, Categories: map[string]float64{}}
	inScope := func(i int) bool {
		return graphID < 0 || m.Tasks[i].GraphID == graphID
	}

	// Terminal: last Stop in scope (ties: lexicographically smallest key,
	// for determinism across event orderings).
	last := -1
	for i := range m.Tasks {
		if !inScope(i) {
			continue
		}
		if last < 0 || m.Tasks[i].Stop > m.Tasks[last].Stop ||
			(m.Tasks[i].Stop == m.Tasks[last].Stop && m.Tasks[i].Key < m.Tasks[last].Key) {
			last = i
		}
	}
	if last < 0 {
		return cp
	}

	base := m.StartSeconds
	if graphID >= 0 {
		if gi := m.graphIndex(graphID); gi >= 0 {
			base = m.Graphs[gi].SubmitAt
		}
	}
	cp.MakespanSeconds = m.Tasks[last].Stop - base

	// Index the previous occupant of each (worker, thread): tasks sorted by
	// start per thread lane.
	type lane struct{ tasks []int }
	lanes := map[string]*lane{}
	laneKey := func(t *Task) string { return fmt.Sprintf("%s\x00%d", t.Worker, t.ThreadID) }
	for i := range m.Tasks {
		lk := laneKey(&m.Tasks[i])
		if lanes[lk] == nil {
			lanes[lk] = &lane{}
		}
		lanes[lk].tasks = append(lanes[lk].tasks, i)
	}
	for _, l := range lanes {
		sort.Slice(l.tasks, func(a, b int) bool {
			ta, tb := &m.Tasks[l.tasks[a]], &m.Tasks[l.tasks[b]]
			if ta.Start != tb.Start {
				return ta.Start < tb.Start
			}
			return ta.Key < tb.Key
		})
	}
	prevOnLane := func(i int) int {
		l := lanes[laneKey(&m.Tasks[i])]
		pos := sort.Search(len(l.tasks), func(p int) bool {
			tp := &m.Tasks[l.tasks[p]]
			return tp.Start > m.Tasks[i].Start ||
				(tp.Start == m.Tasks[i].Start && tp.Key >= m.Tasks[i].Key)
		})
		for p := pos - 1; p >= 0; p-- {
			j := l.tasks[p]
			if m.Tasks[j].Stop <= m.Tasks[i].Start && inScope(j) {
				return j
			}
		}
		return -1
	}

	// Last-finishing task per graph: the walk continues through a graph
	// submission into the prerequisite graph the client waited on.
	lastOfGraph := map[int]int{}
	for i := range m.Tasks {
		g := m.Tasks[i].GraphID
		if p, ok := lastOfGraph[g]; !ok || m.Tasks[i].Stop > m.Tasks[p].Stop ||
			(m.Tasks[i].Stop == m.Tasks[p].Stop && m.Tasks[i].Key < m.Tasks[p].Key) {
			lastOfGraph[g] = i
		}
	}
	// submitPred resolves the task behind a graph's submission: the final
	// task of the latest-finishing prerequisite graph (-1 for initial
	// graphs the client submitted unprompted).
	submitPred := func(graphID int) int {
		gi := m.graphIndex(graphID)
		if gi < 0 {
			return -1
		}
		best := -1
		var bestDone float64
		for _, p := range m.Graphs[gi].Prereqs {
			pi := m.graphIndex(p)
			if pi < 0 {
				continue
			}
			if best < 0 || m.Graphs[pi].DoneAt > bestDone {
				best, bestDone = lastOfGraph[p], m.Graphs[pi].DoneAt
			}
		}
		return best
	}

	var chain []CritTask
	cur := last
	guard := len(m.Tasks) + 1
	for cur >= 0 && guard > 0 {
		guard--
		t := &m.Tasks[cur]
		step := CritTask{
			Key: t.Key, Prefix: t.Prefix, Worker: t.Worker,
			Start: t.Start, Stop: t.Stop,
			ComputeSeconds: t.ComputeSeconds,
			IOSeconds:      t.IOSeconds,
			ProxySeconds:   t.ProxySeconds,
		}

		// Candidate releases, each (time, predecessor, reason, transfer part).
		relTime := base
		relPred := -1
		relReason := "start"
		if graphID < 0 {
			if gi := m.graphIndex(t.GraphID); gi >= 0 {
				if s := m.Graphs[gi].SubmitAt; s > relTime {
					relTime, relReason = s, "submit"
					relPred = submitPred(t.GraphID)
				}
			}
		}
		var relTransfer float64
		for _, d := range t.Deps {
			if !inScope(d) {
				continue
			}
			dep := &m.Tasks[d]
			arr := dep.Stop
			var tp float64
			if e, ok := m.Transfers[EdgeKey{Task: d, To: t.Worker}]; ok && !e.ViaProxy {
				arr += e.Seconds
				tp = e.Seconds
			}
			if arr > relTime || (arr == relTime && relPred < 0) {
				relTime, relPred, relReason, relTransfer = arr, d, "dep", tp
			}
		}
		if p := prevOnLane(cur); p >= 0 {
			if s := m.Tasks[p].Stop; s > relTime {
				relTime, relPred, relReason, relTransfer = s, p, "slot", 0
			}
		}

		// The wait between the predecessor's finish and this start is the
		// data transfer plus a scheduler residue: dispatch, slot queueing,
		// or client think time (for graph-submission releases).
		wait := t.Start - relTime
		if relPred >= 0 {
			wait = t.Start - m.Tasks[relPred].Stop - relTransfer
		}
		if wait < 0 {
			wait = 0
		}
		step.WaitTransferSeconds = relTransfer
		step.WaitSchedulerSeconds = wait
		step.Reason = relReason
		chain = append(chain, step)

		if relPred < 0 {
			// Leading gap from the base to this step's release.
			lead := relTime - base - relTransfer
			if lead > 0 {
				cp.Categories[CatScheduler] += lead
			}
			break
		}
		cur = relPred
	}

	// Reverse into time order and accumulate categories.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	cp.Tasks = chain
	for _, s := range chain {
		cp.Categories[CatCompute] += s.ComputeSeconds
		cp.Categories[CatIO] += s.IOSeconds
		cp.Categories[CatProxy] += s.ProxySeconds
		cp.Categories[CatTransfer] += s.WaitTransferSeconds
		cp.Categories[CatScheduler] += s.WaitSchedulerSeconds
	}
	if cp.MakespanSeconds > 0 {
		cp.Coverage = cp.CriticalSeconds() / cp.MakespanSeconds
	}
	return cp
}

// Slack computes per-task slack via the classic CPM forward/backward pass
// over the dependency DAG (contention-free): slack = latest finish - earliest
// finish. Critical-by-structure tasks have zero slack.
func (m *Model) Slack() map[string]float64 {
	n := len(m.Tasks)
	order := m.topoOrder()
	ef := make([]float64, n) // earliest finish
	es := make([]float64, n)
	for _, i := range order {
		t := &m.Tasks[i]
		start := 0.0
		for _, d := range t.Deps {
			arr := ef[d] + m.depEdgeSeconds(d, i)
			if arr > start {
				start = arr
			}
		}
		es[i] = start
		ef[i] = start + t.DurationSeconds()
	}
	makespan := 0.0
	for i := 0; i < n; i++ {
		if ef[i] > makespan {
			makespan = ef[i]
		}
	}
	lf := make([]float64, n)
	for i := range lf {
		lf[i] = makespan
	}
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		t := &m.Tasks[i]
		ls := lf[i] - t.DurationSeconds()
		for _, d := range t.Deps {
			if lim := ls - m.depEdgeSeconds(d, i); lim < lf[d] {
				lf[d] = lim
			}
		}
	}
	out := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		s := lf[i] - ef[i]
		if s < 0 {
			s = 0
		}
		out[m.Tasks[i].Key] = s
	}
	return out
}

// depEdgeSeconds is the measured (or zero) data-arrival edge weight d -> i.
func (m *Model) depEdgeSeconds(d, i int) float64 {
	if m.Tasks[d].Worker == m.Tasks[i].Worker {
		return 0
	}
	if e, ok := m.Transfers[EdgeKey{Task: d, To: m.Tasks[i].Worker}]; ok && !e.ViaProxy {
		return e.Seconds
	}
	return 0
}

// topoOrder returns a deterministic topological order (Kahn by task index).
func (m *Model) topoOrder() []int {
	n := len(m.Tasks)
	indeg := make([]int, n)
	out := make([][]int, n)
	for i := range m.Tasks {
		for _, d := range m.Tasks[i].Deps {
			out[d] = append(out[d], i)
			indeg[i]++
		}
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		// Pop the smallest index for determinism.
		sort.Ints(queue)
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, j := range out[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	return order
}

// LongestChainSeconds is the pure dependency-chain lower bound over a set of
// task durations: the heaviest path through the deps DAG counting execution
// time only. The live monitor's CriticalPathSeconds lane is this quantity
// computed over the events received so far — a function of the record set
// alone, so partition merge order cannot change it. Unknown or not-yet-
// executed deps contribute zero; a malformed cycle breaks to zero rather
// than recursing forever.
func LongestChainSeconds(durations map[string]float64, deps map[string][]string) float64 {
	memo := make(map[string]float64, len(durations))
	state := make(map[string]int8, len(durations)) // 1=visiting 2=done
	var chain func(k string) float64
	chain = func(k string) float64 {
		if state[k] == 2 {
			return memo[k]
		}
		if state[k] == 1 {
			return 0 // cycle guard
		}
		state[k] = 1
		best := 0.0
		for _, d := range deps[k] {
			if v := chain(d); v > best {
				best = v
			}
		}
		v := best + durations[k]
		state[k] = 2
		memo[k] = v
		return v
	}
	keys := make([]string, 0, len(durations))
	for k := range durations {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best := 0.0
	for _, k := range keys {
		if v := chain(k); v > best {
			best = v
		}
	}
	return best
}

// Summary is the compact critical-path digest attached to RunArtifacts.
type Summary struct {
	MakespanSeconds float64            `json:"makespan_seconds"`
	CriticalTasks   int                `json:"critical_tasks"`
	Categories      map[string]float64 `json:"categories"`
	Coverage        float64            `json:"coverage"`
	// DominantCategory is the largest attribution bucket.
	DominantCategory string `json:"dominant_category"`
}

// Summarize condenses a critical path into the RunArtifacts digest.
func (c *CritPath) Summarize() *Summary {
	s := &Summary{
		MakespanSeconds: c.MakespanSeconds,
		CriticalTasks:   len(c.Tasks),
		Categories:      map[string]float64{},
		Coverage:        c.Coverage,
	}
	best := ""
	for _, cat := range Categories() {
		v := c.Categories[cat]
		s.Categories[cat] = v
		if best == "" || v > s.Categories[best] {
			best = cat
		}
	}
	s.DominantCategory = best
	return s
}

// String renders the digest as one line.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path %.3fs over %d tasks (", s.MakespanSeconds, s.CriticalTasks)
	for i, cat := range Categories() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.1f%%", cat, 100*s.Categories[cat]/max(s.MakespanSeconds, 1e-12))
	}
	b.WriteString(")")
	return b.String()
}
