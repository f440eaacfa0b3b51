package sim

import (
	"fmt"
	"math"
)

// SharedServer is a processor-sharing resource: all active jobs progress
// simultaneously, each receiving an equal share of the server's capacity
// (optionally capped per job). It models bandwidth-shared devices such as
// NICs and parallel-file-system object storage targets, where N concurrent
// transfers each see roughly 1/N of the device throughput.
type SharedServer struct {
	k         *Kernel
	name      string
	capacity  float64 // units per second (e.g. bytes/s)
	perJobCap float64 // max units per second a single job may receive; 0 = no cap
	// jobs is kept in submission order: completion callbacks for jobs that
	// finish at the same instant must fire in a reproducible order, so the
	// server never iterates a map to find them.
	jobs       []sharedJob
	finished   []func() // complete's scratch, kept between completions
	lastUpdate Time
	completion Event   // the one timer, moved in place as the job set changes
	busyUnits  float64 // total units served, for utilization accounting
}

// sharedJob is one unit of work in flight on a SharedServer.
type sharedJob struct {
	remaining float64
	done      func()
}

// NewSharedServer creates a processor-sharing server with the given total
// capacity in units/second. perJobCap limits the rate a single job can
// receive (0 means unlimited, i.e. a lone job gets the full capacity).
func NewSharedServer(k *Kernel, name string, capacity, perJobCap float64) *SharedServer {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: SharedServer %q capacity must be positive", name))
	}
	s := &SharedServer{k: k, name: name, capacity: capacity, perJobCap: perJobCap}
	s.completion.fn = s.complete
	return s
}

// rate returns the per-job service rate given the current job count.
func (s *SharedServer) rate() float64 {
	n := len(s.jobs)
	if n == 0 {
		return 0
	}
	r := s.capacity / float64(n)
	if s.perJobCap > 0 && r > s.perJobCap {
		r = s.perJobCap
	}
	return r
}

// advance progresses every in-flight job to the current virtual time.
func (s *SharedServer) advance() {
	now := s.k.Now()
	dt := (now - s.lastUpdate).Seconds()
	if dt > 0 {
		r := s.rate()
		for i := range s.jobs {
			j := &s.jobs[i]
			served := r * dt
			if served > j.remaining {
				served = j.remaining
			}
			j.remaining -= served
			s.busyUnits += served
		}
	}
	s.lastUpdate = now
}

// reschedule moves the completion event to when the job that will finish
// soonest under the current sharing rate does (and takes it out of the queue
// when no job is left). The ETA is rounded UP to whole nanoseconds (and at
// least 1ns): rounding down could leave a sub-nanosecond residue of work that
// can never be served, spinning the kernel on zero-delay events forever.
func (s *SharedServer) reschedule() {
	if len(s.jobs) == 0 {
		s.k.Unschedule(&s.completion)
		return
	}
	r := s.rate()
	minRemaining := -1.0
	for _, j := range s.jobs {
		if minRemaining < 0 || j.remaining < minRemaining {
			minRemaining = j.remaining
		}
	}
	eta := Time(math.Ceil(minRemaining / r * 1e9))
	if eta < 1 {
		eta = 1
	}
	s.k.Reschedule(&s.completion, s.k.now+eta)
}

// complete fires when the earliest job(s) finish; it retires every job whose
// remaining work has reached (numerically near) zero. The epsilon scales
// with the service rate: any residue smaller than one nanosecond's worth of
// service is unobservable at the kernel's resolution and counts as done.
func (s *SharedServer) complete() {
	s.advance()
	eps := s.rate()*2e-9 + 1e-9
	// The scratch is taken for the duration and given back at the end, so
	// whatever the callbacks do to this server finds no half-used slice.
	finished := s.finished[:0]
	s.finished = nil
	live := s.jobs[:0]
	for _, j := range s.jobs {
		switch {
		case j.remaining > eps:
			live = append(live, j)
		case j.done != nil:
			finished = append(finished, j.done)
		}
	}
	clear(s.jobs[len(live):])
	s.jobs = live
	s.reschedule()
	// Callbacks run after internal state is consistent so they may submit
	// new jobs to this same server.
	for _, done := range finished {
		done()
	}
	clear(finished)
	s.finished = finished
}

// nop stands in for a zero-work job's missing callback: the job still takes
// its zero-delay event.
func nop() {}

// Submit enqueues work units on the server; done is called (in a later event)
// when the job's work has been fully served. Zero or negative work completes
// after a zero-delay event, preserving the "callbacks never run inline"
// property.
func (s *SharedServer) Submit(units float64, done func()) {
	if units <= 0 {
		if done == nil {
			done = nop
		}
		s.k.After(0, done)
		return
	}
	s.advance()
	s.jobs = append(s.jobs, sharedJob{remaining: units, done: done})
	s.reschedule()
}
