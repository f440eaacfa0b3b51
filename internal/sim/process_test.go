package sim

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// procGoroutines counts the goroutines that serve a simulated process: those
// with a sim.(*Proc) frame on their stack. Goroutines the runtime or the race
// detector start and stop on their own do not count, so the tests can expect
// exact numbers.
func procGoroutines() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("taskprov/internal/sim.(*Proc)")) {
			count++
		}
	}
	return count
}

func TestProcSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel(1)
	var marks []Time
	k.Go(func(p *Proc) {
		marks = append(marks, p.Now())
		p.Sleep(Seconds(1))
		marks = append(marks, p.Now())
		p.Sleep(Seconds(2))
		marks = append(marks, p.Now())
	})
	k.Run()
	want := []Time{0, Seconds(1), Seconds(3)}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel(1)
		var log []string
		k.Go(func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, "a")
				p.Sleep(Seconds(2))
			}
		})
		k.Go(func(p *Proc) {
			p.Sleep(Seconds(1))
			for i := 0; i < 3; i++ {
				log = append(log, "b")
				p.Sleep(Seconds(2))
			}
		})
		k.Run()
		return log
	}
	first := run()
	want := "ababab"
	got := ""
	for _, s := range first {
		got += s
	}
	if got != want {
		t.Fatalf("interleaving = %q, want %q", got, want)
	}
	for i := 0; i < 5; i++ {
		again := run()
		for j := range first {
			if again[j] != first[j] {
				t.Fatal("process interleaving nondeterministic across identical runs")
			}
		}
	}
}

func TestProcAwaitSharedServer(t *testing.T) {
	k := NewKernel(1)
	s := NewSharedServer(k, "dev", 100, 0)
	var elapsed Time
	k.Go(func(p *Proc) {
		start := p.Now()
		p.Await(func(done func()) { s.Submit(200, done) })
		elapsed = p.Now() - start
	})
	k.Run()
	if !almostEqual(elapsed, Seconds(2), Microsecond) {
		t.Fatalf("Await elapsed %v, want 2s", elapsed)
	}
}

func TestProcAwaitZeroWork(t *testing.T) {
	k := NewKernel(1)
	s := NewSharedServer(k, "dev", 100, 0)
	finished := false
	k.Go(func(p *Proc) {
		p.Await(func(done func()) { s.Submit(0, done) })
		finished = true
	})
	k.Run()
	if !finished {
		t.Fatal("process never resumed from zero-work Await")
	}
}

func TestManyProcsComplete(t *testing.T) {
	k := NewKernel(1)
	s := NewSharedServer(k, "dev", 1000, 0)
	done := 0
	for i := 0; i < 100; i++ {
		i := i
		k.Go(func(p *Proc) {
			p.Sleep(Time(i) * Milliseconds(1))
			p.Await(func(d func()) { s.Submit(float64(10+i), d) })
			done++
		})
	}
	k.Run()
	if done != 100 {
		t.Fatalf("only %d/100 processes completed", done)
	}
}

func TestProcYield(t *testing.T) {
	k := NewKernel(1)
	var log []string
	k.Go(func(p *Proc) {
		log = append(log, "p1-start")
		p.Sleep(0)
		log = append(log, "p1-after-yield")
	})
	k.Go(func(p *Proc) {
		log = append(log, "p2")
	})
	k.Run()
	// p1 starts first, yields; p2 (scheduled at same timestamp) then runs
	// before p1 resumes.
	want := []string{"p1-start", "p2", "p1-after-yield"}
	for i := range want {
		if i >= len(log) || log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestProcNegativeSleepClamped(t *testing.T) {
	k := NewKernel(1)
	ok := false
	k.Go(func(p *Proc) {
		p.Sleep(-Second)
		ok = p.Now() == 0
	})
	k.Run()
	if !ok {
		t.Fatal("negative sleep moved the clock")
	}
}

// TestProcPanicSurfacesFromRun: a panic in a process body is not swallowed by
// the coroutine switch; Run's caller sees the original value.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	k := NewKernel(1)
	boom := errors.New("boom")
	k.Go(func(p *Proc) {
		p.Sleep(Second)
		panic(boom)
	})
	defer func() {
		if r := recover(); r != boom {
			t.Fatalf("recovered %v, want the process's panic value", r)
		}
		k.Close() // the dead process is nothing to unwind
	}()
	k.Run()
	t.Fatal("Run returned")
}

// TestKernelCloseUnwindsParkedProcs: processes left parked when the run ends
// — asleep past a Stop, awaiting a completion that never comes, or idle since
// their body returned — are unwound by Close: their deferred calls run (even
// ones that park again), nothing after the park does, and their goroutines
// are gone.
func TestKernelCloseUnwindsParkedProcs(t *testing.T) {
	before := procGoroutines()
	k := NewKernel(1)
	var deferred, resumed, finished int
	for i := 0; i < 10; i++ {
		i := i
		k.Go(func(p *Proc) {
			defer func() { deferred++ }()
			defer p.Sleep(Second) // a cleanup that would block: unwinds too
			switch {
			case i < 4:
				p.Sleep(Seconds(100))
			case i < 8:
				p.Await(func(done func()) {}) // never completes
			default:
				p.Sleep(Second)
				finished++
				return
			}
			resumed++
		})
	}
	k.At(Seconds(10), k.Stop)
	k.Run()
	if finished != 2 || deferred != 2 {
		t.Fatalf("before Close: %d finished, %d deferred calls ran", finished, deferred)
	}
	if n := procGoroutines(); n != before+10 {
		t.Fatalf("%d goroutines with 8 processes parked and 2 idle, %d before", n, before)
	}
	k.Close()
	k.Close() // idempotent
	if deferred != 10 || resumed != 0 {
		t.Fatalf("after Close: %d deferred calls ran (want 10), %d bodies resumed past their park", deferred, resumed)
	}
	if n := procGoroutines(); n != before {
		t.Fatalf("%d goroutines after Close, %d before", n, before)
	}
}

// TestProcAllocBudget: the switch itself allocates nothing, and Sleep re-arms
// the process's own timer, so a sleeping loop runs malloc-free; Await pays
// only for what the awaited operation allocates; and starting a body on a
// kernel that has an idle process costs the body's closure and nothing else —
// no Proc, no coroutine, no goroutine.
func TestProcAllocBudget(t *testing.T) {
	const rounds = 1000
	run := func(body func(p *Proc)) float64 {
		k := NewKernel(1)
		k.Go(func(p *Proc) {
			for {
				body(p)
			}
		})
		k.RunUntil(0) // start the process: the coroutine is set up once
		n := testing.AllocsPerRun(rounds, func() { k.RunUntil(k.Now() + Second) })
		k.Close()
		return n
	}
	if n := run(func(p *Proc) { p.Sleep(Second) }); n != 0 {
		t.Errorf("Sleep round trip: %v allocs, budget 0", n)
	}
	var s *SharedServer
	start := func(done func()) { s.Submit(1, done) }
	n := run(func(p *Proc) {
		if s == nil {
			s = NewSharedServer(p.k, "dev", 1, 0)
		}
		p.Await(start)
	})
	if n != 0 {
		t.Errorf("Await(Submit) to completion: %v allocs, budget 0", n)
	}

	k := NewKernel(1)
	defer k.Close()
	before := procGoroutines()
	ran := 0
	n = testing.AllocsPerRun(rounds, func() {
		k.Go(func(p *Proc) {
			p.Sleep(Second)
			ran++
		})
		k.Run()
	})
	if n > 1 {
		t.Errorf("Go of a body on a kernel with an idle process: %v allocs, budget 1 (the closure)", n)
	}
	if ran != rounds+1 {
		t.Errorf("%d bodies ran to their end, want %d", ran, rounds+1)
	}
	if g := procGoroutines(); g != before+1 {
		t.Errorf("%d goroutines serve %d bodies run one after another, want 1", g-before, ran)
	}
}

// TestProcStaleResumePanics: a completion delivered to a process whose body
// has already returned — an Await whose done fires twice — is a bug in the
// caller, and the kernel says so instead of waking whatever body the
// recycled process runs next.
func TestProcStaleResumePanics(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	k.Go(func(p *Proc) {
		p.Await(func(done func()) {
			k.After(Second, done)
			k.After(Seconds(2), done)
		})
	})
	defer func() {
		const want = "sim: resume of a process whose body has returned"
		if r := recover(); r != want {
			t.Fatalf("recovered %v, want %q", r, want)
		}
	}()
	k.Run()
	t.Fatal("Run returned")
}
