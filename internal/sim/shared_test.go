package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

func almostEqual(a, b Time, tol Time) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestSharedServerSingleJobFullRate(t *testing.T) {
	k := NewKernel(1)
	s := NewSharedServer(k, "ost0", 100, 0) // 100 units/s
	var doneAt Time
	s.Submit(50, func() { doneAt = k.Now() })
	k.Run()
	if !almostEqual(doneAt, Milliseconds(500), Microsecond) {
		t.Fatalf("single job finished at %v, want 0.5s", doneAt)
	}
}

func TestSharedServerEqualSharing(t *testing.T) {
	k := NewKernel(1)
	s := NewSharedServer(k, "nic", 100, 0)
	var d1, d2 Time
	s.Submit(50, func() { d1 = k.Now() })
	s.Submit(50, func() { d2 = k.Now() })
	k.Run()
	// Two equal jobs sharing 100 units/s each see 50 units/s: both take 1s.
	if !almostEqual(d1, Second, Microsecond) || !almostEqual(d2, Second, Microsecond) {
		t.Fatalf("equal jobs finished at %v, %v; want 1s each", d1, d2)
	}
}

func TestSharedServerLateArrivalSlowsDown(t *testing.T) {
	k := NewKernel(1)
	s := NewSharedServer(k, "nic", 100, 0)
	var d1, d2 Time
	s.Submit(100, func() { d1 = k.Now() }) // alone: would finish at 1s
	k.After(Milliseconds(500), func() {
		s.Submit(100, func() { d2 = k.Now() })
	})
	k.Run()
	// Job 1: 0.5s at 100/s (50 served) then shares at 50/s (1s more) = 1.5s.
	if !almostEqual(d1, Milliseconds(1500), Microsecond) {
		t.Fatalf("job1 finished at %v, want 1.5s", d1)
	}
	// Job 2: 50/s until job1 exits at 1.5s (50 served), then 100/s for the
	// remaining 50 => finishes at 2.0s.
	if !almostEqual(d2, Seconds(2), Microsecond) {
		t.Fatalf("job2 finished at %v, want 2.0s", d2)
	}
}

func TestSharedServerPerJobCap(t *testing.T) {
	k := NewKernel(1)
	s := NewSharedServer(k, "nic", 100, 25) // lone job capped to 25/s
	var doneAt Time
	s.Submit(50, func() { doneAt = k.Now() })
	k.Run()
	if !almostEqual(doneAt, Seconds(2), Microsecond) {
		t.Fatalf("capped job finished at %v, want 2s", doneAt)
	}
}

func TestSharedServerZeroWorkCompletesImmediately(t *testing.T) {
	k := NewKernel(1)
	s := NewSharedServer(k, "nic", 100, 0)
	done := false
	s.Submit(0, func() { done = true })
	if done {
		t.Fatal("zero-work callback ran inline")
	}
	k.Run()
	if !done || k.Now() != 0 {
		t.Fatalf("zero-work job: done=%v now=%v", done, k.Now())
	}
}

func TestSharedServerCallbackMaySubmit(t *testing.T) {
	k := NewKernel(1)
	s := NewSharedServer(k, "nic", 100, 0)
	var second Time
	s.Submit(100, func() {
		s.Submit(100, func() { second = k.Now() })
	})
	k.Run()
	if !almostEqual(second, Seconds(2), Microsecond) {
		t.Fatalf("chained job finished at %v, want 2s", second)
	}
}

func TestSharedServerUtilizationAccounting(t *testing.T) {
	k := NewKernel(1)
	s := NewSharedServer(k, "ost", 100, 0)
	s.Submit(30, nil)
	s.Submit(70, nil)
	k.Run()
	if math.Abs(s.busyUnits-100) > 1e-6 {
		t.Fatalf("UnitsServed = %v, want 100", s.busyUnits)
	}
	if len(s.jobs) != 0 {
		t.Fatalf("Active = %d after drain", len(s.jobs))
	}
}

func TestSharedServerManyJobsConservation(t *testing.T) {
	// Property-style: any mix of job sizes and arrival times must conserve
	// total work and never finish a job faster than capacity allows.
	k := NewKernel(99)
	g := NewRNG(5)
	s := NewSharedServer(k, "ost", 1000, 0)
	type rec struct {
		size     float64
		arrive   Time
		finished Time
	}
	var recs []*rec
	var total float64
	for i := 0; i < 50; i++ {
		r := &rec{size: g.Uniform(1, 500), arrive: Time(g.Intn(1000)) * Milliseconds(1)}
		total += r.size
		recs = append(recs, r)
		k.At(r.arrive, func() {
			s.Submit(r.size, func() { r.finished = k.Now() })
		})
	}
	k.Run()
	for _, r := range recs {
		if r.finished == 0 && r.arrive != 0 {
			t.Fatalf("job never finished: %+v", r)
		}
		minDur := Seconds(r.size / 1000)
		if r.finished-r.arrive < minDur-Microsecond {
			t.Fatalf("job finished faster than capacity: %+v (min %v)", r, minDur)
		}
	}
	if math.Abs(s.busyUnits-total) > 1e-3 {
		t.Fatalf("UnitsServed = %v, want %v", s.busyUnits, total)
	}
}

func TestSharedServerInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewSharedServer(NewKernel(1), "bad", 0, 0)
}

func TestSharedServerNoZeroDelaySpinOnResidue(t *testing.T) {
	// Regression: jittered byte counts leave sub-nanosecond residues of
	// work; the server must not spin on zero-delay completion events.
	k := NewKernel(3)
	g := NewRNG(17)
	s := NewSharedServer(k, "nic", 8e10, 0) // high rate: large per-ns quanta
	done := 0
	const jobs = 2000
	for i := 0; i < jobs; i++ {
		arrive := Time(g.Intn(1_000_000)) * Microsecond
		size := g.LogNormalMean(1024, 0.15) // adversarial fractional sizes
		k.At(arrive, func() {
			s.Submit(size, func() { done++ })
		})
	}
	end := k.Run()
	if done != jobs {
		t.Fatalf("completed %d/%d jobs", done, jobs)
	}
	// The kernel must terminate in bounded steps (not millions of spins).
	if k.Steps() > uint64(jobs*20) {
		t.Fatalf("kernel took %d steps for %d jobs: zero-delay spin", k.Steps(), jobs)
	}
	if end <= 0 {
		t.Fatal("no time passed")
	}
}

// TestSharedServerSameInstantCompletionOrder: jobs finishing at the same
// instant must run their callbacks in submission order. The server once
// tracked jobs in a map, which made this ordering depend on allocator
// addresses and leaked nondeterminism into every simulation above it.
func TestSharedServerSameInstantCompletionOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		k := NewKernel(1)
		s := NewSharedServer(k, "nic", 100, 0)
		var order []int
		k.After(0, func() {
			for i := 0; i < 8; i++ {
				i := i
				s.Submit(50, func() { order = append(order, i) })
			}
		})
		k.Run()
		if len(order) != 8 {
			t.Fatalf("trial %d: %d completions, want 8", trial, len(order))
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("trial %d: completion order %v, want submission order", trial, order)
			}
		}
	}
}

// TestSharedServerGoldenTrace pins the server's arithmetic and its use of the
// kernel's sequence numbers: two servers on one kernel under random arrivals
// (bursts at one instant, zero-size jobs, equal sizes that finish together,
// callbacks that submit more work) must complete every job at the recorded
// nanosecond and run the callbacks in the recorded order. The digest was
// recorded from the implementation that cancelled its completion event and
// scheduled a fresh one on every change of the job set.
func TestSharedServerGoldenTrace(t *testing.T) {
	k := NewKernel(42)
	rng := k.RNG("golden")
	servers := []*SharedServer{
		NewSharedServer(k, "nic", 1e9, 0),
		NewSharedServer(k, "ost", 3e8, 1e8),
	}
	h := fnv.New64a()
	jobs, next := 0, 0
	var last Time
	var submit func(s *SharedServer, units float64, chain int)
	submit = func(s *SharedServer, units float64, chain int) {
		id := next
		next++
		s.Submit(units, func() {
			jobs++
			last = k.Now()
			fmt.Fprintf(h, "%d@%d;", id, k.Now())
			if chain > 0 {
				submit(servers[(id+chain)%2], units/2, chain-1)
			}
		})
	}
	sizes := []float64{0, 1, 4096, 4096, 1 << 20, 1 << 20, 3.5e6, 1e7, 1e8}
	for i := 0; i < 300; i++ {
		at := Time(rng.Intn(200)) * Milliseconds(1) // coarse grid: many bursts
		burst := 1 + rng.Intn(3)
		for b := 0; b < burst; b++ {
			s := servers[rng.Intn(2)]
			units := sizes[rng.Intn(len(sizes))]
			chain := rng.Intn(3)
			k.At(at, func() { submit(s, units, chain) })
		}
	}
	k.Run()
	got := fmt.Sprintf("%d jobs, last at %d, digest %016x", jobs, last, h.Sum64())
	const want = "1159 jobs, last at 17952237392, digest 63cf783ad1ea1f6a"
	if got != want {
		t.Fatalf("trace = %s\n want   %s", got, want)
	}
	for _, s := range servers {
		if len(s.jobs) != 0 {
			t.Fatalf("%s still has %d jobs", s.name, len(s.jobs))
		}
	}
	if k.Pending() != 0 {
		t.Fatalf("%d events left in the queue", k.Pending())
	}
}
