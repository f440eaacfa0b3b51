package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// The calibrator turns wall-clock readings taken on a shared VM into seconds
// on a nominal machine. A fixed kernel that touches the same resources as the
// program (map[string]any construction, encoding/json both ways, heap
// pushes, a sort) runs before the first timed cycle and after every cycle;
// a cycle's reading is divided by how slow the kernel ran around it.
//
// The kernel never calls repo code, so no optimisation of the repo can move
// it, and it allocates like the program because an allocation-free kernel
// tracked the machine's drift less well (see README, "Noise method").

// calNominalS is what one kernel execution costs on the nominal machine
// (the 2-core VM the benchmark was founded on, on a quiet minute). It only
// fixes the unit: calibrated times are seconds on that machine.
const calNominalS = 0.070

// calExecutions is how many kernel executions make one sample; the sample
// is their minimum, which discards executions a neighbour interrupted.
const calExecutions = 3

type calItem struct {
	at  float64
	seq int
}

type calHeap []calItem

func (h calHeap) Len() int { return len(h) }
func (h calHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h calHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)   { *h = append(*h, x.(calItem)) }
func (h *calHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

var calSortBuf = make([]float64, 1<<16)

// calSink keeps the kernel's results alive so the compiler cannot drop the
// work.
var calSink int

// calKernel is the fixed unit of work. Its input is a constant, so every
// execution does identical work on every commit.
func calKernel() {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// Event-shaped maps through encoding/json and back: the program's
	// dominant allocation pattern.
	for i := 0; i < 5500; i++ {
		m := map[string]any{
			"key":       fmt.Sprintf("('task-%012x', %d)", next()&0xFFFFFFFFFFFF, i),
			"worker":    "tcp://10.0.0.1:40001",
			"hostname":  "x3001c0s1b0n0",
			"thread_id": next() & 0xFFFF,
			"start":     float64(next()%1e9) / 1e6,
			"stop":      float64(next()%1e9) / 1e6,
			"deps":      []any{"a", "b", "c"},
			"graph_id":  i & 63,
		}
		b, err := json.Marshal(m)
		if err != nil {
			panic(err)
		}
		var back map[string]any
		if err := json.Unmarshal(b, &back); err != nil {
			panic(err)
		}
		calSink += len(back) + len(b)
	}
	// A timer heap, as the simulation kernel keeps.
	h := make(calHeap, 0, 1024)
	for i := 0; i < 150000; i++ {
		heap.Push(&h, calItem{at: float64(next() % 1e6), seq: i})
		if len(h) > 1000 {
			calSink += heap.Pop(&h).(calItem).seq
		}
	}
	// A sort over a preallocated buffer, as the frame package does.
	for i := range calSortBuf {
		calSortBuf[i] = float64(next() % 1e9)
	}
	sort.Float64s(calSortBuf)
	calSink += int(calSortBuf[0])
}

// calSample runs the kernel n times and returns the fastest, in seconds.
func calSample(n int) float64 {
	best := 0.0
	for i := 0; i < n; i++ {
		t0 := time.Now()
		calKernel()
		d := time.Since(t0).Seconds()
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

// calibrator records every sample it takes and the wall time it spent, so
// the harness can subtract its own cost from set-up.
type calibrator struct {
	samples []float64
	spent   time.Duration
	// sample is calSample in production; tests substitute a synthetic
	// machine.
	sample func(executions int) float64
}

func newCalibrator() *calibrator { return &calibrator{sample: calSample} }

// take is a full sample, for the segments the end-to-end metrics are made
// of; takeQuick is a single execution, for the stage replays, whose numbers
// carry no bound and are many.
func (c *calibrator) take() float64      { return c.run(calExecutions) }
func (c *calibrator) takeQuick() float64 { return c.run(1) }

func (c *calibrator) run(executions int) float64 {
	t0 := time.Now()
	s := c.sample(executions)
	c.spent += time.Since(t0)
	c.samples = append(c.samples, s)
	return s
}

// calibrated scales a raw reading by the mean of the kernel samples taken
// before and after it.
func calibrated(raw, before, after float64) float64 {
	return raw * calNominalS / ((before + after) / 2)
}
