//go:build go1.23

// The build constraint raises this file's language version so it may use
// iter.Pull while go.mod (and bench/e2e, which replaces this module) stays at
// go 1.22.

package sim

import "iter"

// Proc is a coroutine-style simulation process: a coroutine that runs in
// strict alternation with the kernel, so sequential code (sleep, do an async
// operation, sleep again) can be written in straight-line style while the
// kernel stays deterministic.
//
// Exactly one of them — either the kernel or one process — runs at any
// moment. The kernel resumes a process from an event callback and does not
// continue until the process parks (in Sleep or Await) or returns. The switch
// is iter.Pull's direct goroutine-to-goroutine handoff, which also orders all
// memory accesses on either side of it.
type Proc struct {
	k      *Kernel
	body   func(p *Proc)           // nil while the process is idle, between two bodies
	yield  func(struct{}) bool     // process -> kernel: parked
	next   func() (struct{}, bool) // kernel -> process: run until parked or finished
	stop   func()                  // kernel -> process: unwind (Kernel.Close)
	resume func()                  // resumeFromEvent, bound once
	wake   Event                   // start, then Sleep's timer: a process sleeps on one at a time
}

// procKilled is what park panics with when Kernel.Close unwinds the process.
type procKilled struct{}

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.Now() }

// Go starts fn as a new simulation process at the current virtual time (it
// begins executing in a zero-delay event). When fn returns the process ends;
// its coroutine stays parked on the kernel's idle list, where the next Go
// finds it, until Kernel.Close. A panic in fn surfaces from Kernel.Run with
// its original value.
func (k *Kernel) Go(fn func(p *Proc)) {
	var p *Proc
	if n := len(k.idle); n > 0 {
		p, k.idle = k.idle[n-1], k.idle[:n-1]
	} else {
		p = &Proc{k: k}
		p.resume = p.resumeFromEvent
		p.wake.fn = p.resume
	}
	p.body = fn
	k.Reschedule(&p.wake, k.now)
}

// start creates the coroutine, in the process's first event so that a process
// the kernel never reaches costs no goroutine. The coroutine outlives the
// body: it runs one, parks idle, and runs the next one Go hands it.
func (p *Proc) start() {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, killed := r.(procKilled); !killed {
					panic(r)
				}
			}
		}()
		for {
			p.body(p)
			p.body = nil
			p.k.idle = append(p.k.idle, p)
			p.park()
		}
	})
	p.k.procs = append(p.k.procs, p)
}

// park transfers control back to the kernel and blocks until resumed. When
// the kernel is closed instead, it unwinds the process body.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// resumeFromEvent is called from kernel event context; it hands control to
// the process and holds the kernel until the process parks again or
// finishes.
func (p *Proc) resumeFromEvent() {
	if p.body == nil {
		// A completion delivered twice, or a timer that outlived its body:
		// running on would hand the wake-up to whichever body comes next.
		panic("sim: resume of a process whose body has returned")
	}
	if p.next == nil {
		p.start()
	}
	p.next()
}

// Close unwinds every process that is still parked — idle between bodies, or
// left behind by a run that ended in Stop or with processes waiting on events
// that never came — so their goroutines exit and release what they hold.
// Deferred calls in the process bodies run. Call it after Run has returned;
// the kernel must not be run again.
func (k *Kernel) Close() {
	for len(k.procs) > 0 {
		p := k.procs[len(k.procs)-1]
		k.procs = k.procs[:len(k.procs)-1]
		p.stop()
	}
	k.procs, k.idle = nil, nil
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.k.Reschedule(&p.wake, p.k.now+d)
	p.park()
}

// Await runs an asynchronous operation and blocks the process until the
// operation's completion callback fires. start is invoked immediately (in
// process context) with a done function; the operation MUST arrange for done
// to be called from a kernel event callback, never synchronously from within
// start itself, or the simulation deadlocks. All asynchronous primitives in
// this repository (SharedServer.Submit, platform transfers, PFS operations)
// satisfy that contract.
func (p *Proc) Await(start func(done func())) {
	start(p.resume)
	p.park()
}
