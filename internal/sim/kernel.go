package sim

import (
	"fmt"
	"math"
)

// Event is a scheduled callback. A timer that must be moved or cancelled is an
// Event its caller owns and arms with Kernel.Reschedule and Kernel.Unschedule
// (SharedServer's completion, a Proc's wake-up, Every's tick); At and After
// schedule fire-and-forget events the kernel owns and recycles.
type Event struct {
	at     Time
	seq    uint64
	fn     func()
	pos    int  // 1-based position in the kernel's heap; 0 while not queued
	pooled bool // the kernel's own: back on its free list once fired
}

// before orders events by (time, sequence). The sequence number makes the
// ordering of simultaneous events deterministic: they fire in scheduling
// order.
func (e *Event) before(o *Event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Kernel is a single-threaded discrete-event simulator. All methods must be
// called from the goroutine running the simulation (typically from inside
// event callbacks, or before Run).
type Kernel struct {
	now     Time
	heap    []*Event // binary min-heap by Event.before
	seq     uint64
	stopped bool
	steps   uint64
	rng     *RNG
	free    []*Event // fired At/After events, reused LIFO
	procs   []*Proc  // every process with a coroutine, for Close
	idle    []*Proc  // those whose body returned, reused LIFO by Go
}

// NewKernel returns a kernel at virtual time zero whose root RNG is seeded
// with seed. Two kernels with the same seed and the same event program evolve
// identically.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rng: NewRNG(seed)}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Steps reports how many events have fired so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// RNG returns a deterministic random stream derived from the kernel seed and
// the given name. Calling RNG twice with the same name returns streams with
// identical state, so each component should derive its stream once.
func (k *Kernel) RNG(name string) *RNG { return k.rng.Split(name) }

// up moves the event at heap index i towards the root until its parent fires
// no later than it.
func (k *Kernel) up(i int) {
	h := k.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].pos = i + 1
		i = parent
	}
	h[i] = e
	e.pos = i + 1
}

// down moves the event at heap index i towards the leaves until both its
// children fire no earlier than it.
func (k *Kernel) down(i int) {
	h := k.heap
	e := h[i]
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(e) {
			break
		}
		h[i] = h[child]
		h[i].pos = i + 1
		i = child
	}
	h[i] = e
	e.pos = i + 1
}

// removeAt takes the event at heap index i out of the queue.
func (k *Kernel) removeAt(i int) {
	h := k.heap
	last := len(h) - 1
	h[i].pos = 0
	moved := h[last]
	h[last] = nil
	k.heap = h[:last]
	if i == last {
		return
	}
	k.heap[i] = moved
	k.fix(i)
}

// fix restores heap order around index i after its event's key changed.
func (k *Kernel) fix(i int) {
	e := k.heap[i]
	k.up(i)
	if e.pos == i+1 {
		k.down(i)
	}
}

// Reschedule makes e — queued or not — fire at the absolute virtual time t,
// in place: nothing is allocated and no dead entry stays in the queue. It
// consumes one sequence number, so among simultaneous events e fires where a
// freshly scheduled event would. The caller owns e and must not share it with
// another kernel. Scheduling in the past panics.
func (k *Kernel) Reschedule(e *Event, t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	e.at, e.seq = t, k.seq
	k.seq++
	if e.pos == 0 {
		k.heap = append(k.heap, e)
		k.up(len(k.heap) - 1)
		return
	}
	k.fix(e.pos - 1) // the sequence number grew, but t may be earlier
}

// Unschedule removes e from the queue so that it does not fire; an event that
// is not queued is left alone. It leaves nothing behind, and e can be armed
// again with Reschedule.
func (k *Kernel) Unschedule(e *Event) {
	if e.pos != 0 {
		k.removeAt(e.pos - 1)
	}
}

// At schedules fn to run once at the absolute virtual time t, fire and
// forget: the event is the kernel's, taken from its free list and put back
// when it fires. Scheduling in the past panics: it indicates a causality bug
// in the caller.
func (k *Kernel) At(t Time, fn func()) {
	var e *Event
	if n := len(k.free); n > 0 {
		e, k.free = k.free[n-1], k.free[:n-1]
	} else {
		e = &Event{pooled: true}
	}
	e.fn = fn
	k.Reschedule(e, t)
}

// After schedules fn to run once d after the current virtual time. Negative
// delays are clamped to zero.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	k.At(k.now+d, fn)
}

// Stop makes Run return after the currently firing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Every schedules fn to fire every d of virtual time, starting d from now,
// until the returned stop function is called. Periodic loops keep the event
// heap non-empty, so programs using Every must end their runs with Stop (as
// the heartbeat and stealing loops already require).
func (k *Kernel) Every(d Time, fn func()) (stop func()) {
	if d <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %v", d))
	}
	stopped := false
	tick := &Event{}
	tick.fn = func() {
		fn()
		if !stopped {
			k.Reschedule(tick, k.now+d)
		}
	}
	k.Reschedule(tick, k.now+d)
	return func() {
		stopped = true
		k.Unschedule(tick)
	}
}

// fire pops and runs events in (time, sequence) order until the next one is
// after deadline, none remain, or Stop is called.
func (k *Kernel) fire(deadline Time) {
	k.stopped = false
	for len(k.heap) > 0 && !k.stopped {
		e := k.heap[0]
		if e.at > deadline {
			break
		}
		k.removeAt(0)
		k.now = e.at
		k.steps++
		fn := e.fn
		if e.pooled {
			// Back before the callback, so an After from inside it reuses
			// this event; nothing outside the kernel holds a pooled event.
			e.fn = nil
			k.free = append(k.free, e)
		}
		fn()
	}
}

// Run fires events in timestamp order until no events remain or Stop is
// called. It returns the final virtual time.
func (k *Kernel) Run() Time {
	k.fire(math.MaxInt64)
	return k.now
}

// RunUntil fires events until the next event would be after deadline, no
// events remain, or Stop is called. The clock is advanced to deadline if the
// simulation ran out of events earlier. It returns the final virtual time.
func (k *Kernel) RunUntil(deadline Time) Time {
	k.fire(deadline)
	if k.now < deadline {
		k.now = deadline
	}
	return k.now
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return len(k.heap) }
