package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(Seconds(2), func() { order = append(order, 2) })
	k.At(Seconds(1), func() { order = append(order, 1) })
	k.At(Seconds(3), func() { order = append(order, 3) })
	end := k.Run()
	if end != Seconds(3) {
		t.Fatalf("end time = %v, want 3s", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
}

func TestKernelSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(Seconds(1), func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of schedule order: %v", order)
		}
	}
}

func TestKernelAfterAndNow(t *testing.T) {
	k := NewKernel(1)
	var at2, at5 Time
	k.After(Seconds(2), func() {
		at2 = k.Now()
		k.After(Seconds(3), func() { at5 = k.Now() })
	})
	k.Run()
	if at2 != Seconds(2) || at5 != Seconds(5) {
		t.Fatalf("Now() inside events = %v, %v; want 2s, 5s", at2, at5)
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := &Event{fn: func() { fired = true }}
	k.Reschedule(e, Second)
	k.Unschedule(e)
	k.Run()
	if fired {
		t.Fatal("unscheduled event fired")
	}
	if k.Pending() != 0 || k.Steps() != 0 {
		t.Fatalf("unscheduled event left %d pending, %d steps", k.Pending(), k.Steps())
	}
}

func TestKernelSchedulingInPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.After(Seconds(5), func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(Seconds(1), func() {})
	})
	k.Run()
}

func TestKernelStop(t *testing.T) {
	k := NewKernel(1)
	count := 0
	for i := 1; i <= 10; i++ {
		k.At(Seconds(float64(i)), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Fatalf("fired %d events after Stop at 3", count)
	}
	if k.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", k.Pending())
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	for i := 1; i <= 5; i++ {
		d := Seconds(float64(i))
		k.At(d, func() { fired = append(fired, d) })
	}
	end := k.RunUntil(Seconds(3.5))
	if len(fired) != 3 {
		t.Fatalf("RunUntil fired %d events, want 3", len(fired))
	}
	if end != Seconds(3.5) {
		t.Fatalf("RunUntil end = %v, want 3.5s", end)
	}
	// Remaining events still fire on Run.
	k.Run()
	if len(fired) != 5 {
		t.Fatalf("Run after RunUntil fired %d total, want 5", len(fired))
	}
}

func TestKernelRunUntilAdvancesIdleClock(t *testing.T) {
	k := NewKernel(1)
	end := k.RunUntil(Seconds(10))
	if end != Seconds(10) {
		t.Fatalf("idle RunUntil end = %v, want 10s", end)
	}
}

func TestKernelNegativeDelayClamped(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.After(-Second, func() { fired = true })
	k.Run()
	if !fired || k.Now() != 0 {
		t.Fatalf("negative delay: fired=%v now=%v", fired, k.Now())
	}
}

func TestTimeHelpers(t *testing.T) {
	if Seconds(1.5).Seconds() != 1.5 {
		t.Errorf("Seconds round-trip failed")
	}
	if Milliseconds(250) != Seconds(0.25) {
		t.Errorf("Milliseconds(250) != Seconds(0.25)")
	}
	if Microseconds(1000) != Milliseconds(1) {
		t.Errorf("Microseconds(1000) != Milliseconds(1)")
	}
	if s := Seconds(1.25).String(); s != "1.250000s" {
		t.Errorf("String() = %q", s)
	}
}

// Property: with any batch of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestKernelTimeMonotonicProperty(t *testing.T) {
	prop := func(delays []uint32) bool {
		k := NewKernel(7)
		var max Time
		var times []Time
		for _, d := range delays {
			d := Time(d) * Microsecond
			if d > max {
				max = d
			}
			k.At(d, func() { times = append(times, k.Now()) })
		}
		k.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(delays) == 0 || k.Now() == max
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestKernelEvery(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	var stop func()
	stop = k.Every(Seconds(1), func() {
		fired = append(fired, k.Now())
		if len(fired) == 3 {
			stop()
		}
	})
	k.At(Seconds(10), k.Stop)
	k.Run()
	want := []Time{Seconds(1), Seconds(2), Seconds(3)}
	if len(fired) != len(want) {
		t.Fatalf("fired %d times (%v), want %d", len(fired), fired, len(want))
	}
	for i, ts := range want {
		if fired[i] != ts {
			t.Fatalf("firing %d at %v, want %v", i, fired[i], ts)
		}
	}
}

func TestKernelEveryStopBetweenFirings(t *testing.T) {
	k := NewKernel(1)
	count := 0
	stop := k.Every(Seconds(1), func() { count++ })
	k.At(Milliseconds(2500), func() { stop() })
	k.At(Seconds(10), k.Stop)
	k.Run()
	if count != 2 {
		t.Fatalf("fired %d times after stop at 2.5s, want 2", count)
	}
}

func TestKernelEveryNonPositivePeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKernel(1).Every(0, func() {})
}

// TestKernelOrderProperty drives random programs of fire-and-forget At and
// After, and of Reschedule and Unschedule on events the test owns, interleaved
// with RunUntil, against a model that knows nothing about heaps or free
// lists: the callbacks that run in each stretch are those of the queued
// events due by the deadline, in the order a sort by (time, sequence number)
// gives, where every At, After and Reschedule takes the next sequence number.
// Every callback carries its own id, so a recycled Event that fires a stale
// callback, fires twice or not at all shows as a wrong id in the order. Steps
// counts exactly the fired events, and Pending the queued ones — a moved or
// unscheduled timer leaves no dead entry behind.
func TestKernelOrderProperty(t *testing.T) {
	type model struct {
		ev     *Event // nil: fire-and-forget, the kernel's
		at     Time
		seq    uint64
		queued bool
	}
	for prog := 0; prog < 300; prog++ {
		rng := rand.New(rand.NewSource(int64(prog)))
		k := NewKernel(1)
		var (
			events []*model
			owned  []*model
			seq    uint64
			fired  []int
			steps  uint64
		)
		// A coarse grid of times makes ties, which only the sequence number
		// breaks.
		when := func() Time { return k.Now() + Time(rng.Intn(8))*Milliseconds(1) }
		for phase := 0; phase < 6; phase++ {
			for op := 0; op < 40; op++ {
				var m *model
				if len(owned) > 0 {
					m = owned[rng.Intn(len(owned))]
				}
				switch c := rng.Intn(10); {
				case c < 3:
					id := len(events)
					m = &model{at: when(), seq: seq, queued: true}
					fn := func() { fired = append(fired, id) }
					if c%2 == 0 {
						k.At(m.at, fn)
					} else {
						k.After(m.at-k.Now(), fn)
					}
					seq++
					events = append(events, m)
				case c < 5 || m == nil:
					id := len(events)
					m = &model{ev: &Event{fn: func() { fired = append(fired, id) }}}
					events = append(events, m)
					owned = append(owned, m)
					fallthrough
				case c < 8:
					m.at, m.seq, m.queued = when(), seq, true
					seq++
					k.Reschedule(m.ev, m.at)
					if m.ev.at != m.at {
						t.Fatalf("program %d: at = %v after Reschedule to %v", prog, m.ev.at, m.at)
					}
				default:
					k.Unschedule(m.ev)
					m.queued = false
				}
			}
			pending := 0
			for _, m := range events {
				if m.queued {
					pending++
				}
			}
			if k.Pending() != pending {
				t.Fatalf("program %d phase %d: Pending() = %d, %d events are queued", prog, phase, k.Pending(), pending)
			}

			deadline := k.Now() + Time(rng.Intn(6))*Milliseconds(1)
			last := phase == 5
			var due []int
			for id, m := range events {
				if m.queued && (last || m.at <= deadline) {
					m.queued = false
					due = append(due, id)
				}
			}
			sort.Slice(due, func(i, j int) bool {
				a, b := events[due[i]], events[due[j]]
				if a.at != b.at {
					return a.at < b.at
				}
				return a.seq < b.seq
			})
			fired = fired[:0]
			if last {
				k.Run()
			} else if end := k.RunUntil(deadline); end != deadline {
				t.Fatalf("program %d phase %d: RunUntil(%v) = %v", prog, phase, deadline, end)
			}
			if !reflect.DeepEqual(append([]int{}, fired...), append([]int{}, due...)) {
				t.Fatalf("program %d phase %d: fired %v, reference order %v", prog, phase, fired, due)
			}
			steps += uint64(len(due))
			if k.Steps() != steps {
				t.Fatalf("program %d phase %d: Steps() = %d, %d events fired", prog, phase, k.Steps(), steps)
			}
		}
		if k.Pending() != 0 {
			t.Fatalf("program %d: %d events pending after Run", prog, k.Pending())
		}
	}
}

// TestKernelRescheduleInThePastPanics: Reschedule checks causality as At does.
func TestKernelRescheduleInThePastPanics(t *testing.T) {
	k := NewKernel(1)
	e := &Event{fn: func() {}}
	k.Reschedule(e, Seconds(9))
	k.RunUntil(Seconds(5))
	defer func() {
		if recover() == nil {
			t.Fatal("rescheduling into the past did not panic")
		}
	}()
	k.Reschedule(e, Seconds(1))
}

// TestKernelAllocBudget: in steady state neither a fire-and-forget event nor
// moving an owned one costs a malloc — At and After take their Event from the
// kernel's free list, whether the callback chains the next one or not.
func TestKernelAllocBudget(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	if n := testing.AllocsPerRun(1000, func() {
		k.After(Microsecond, fn)
		k.At(k.Now()+Microsecond, fn)
		k.Run()
	}); n != 0 {
		t.Errorf("Kernel.After + At + firing: %v allocs, budget 0", n)
	}
	var chain func()
	left := 0
	chain = func() {
		if left--; left > 0 {
			k.After(Microsecond, chain)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		left = 10
		k.After(Microsecond, chain)
		k.Run()
	}); n != 0 {
		t.Errorf("chain of 10 After: %v allocs, budget 0", n)
	}
	e := &Event{fn: fn}
	if n := testing.AllocsPerRun(1000, func() {
		k.Reschedule(e, k.Now()+Microsecond)
		k.Run()
		k.Reschedule(e, k.Now()+Second)
		k.Unschedule(e)
	}); n != 0 {
		t.Errorf("Reschedule/Unschedule: %v allocs, budget 0", n)
	}
}
