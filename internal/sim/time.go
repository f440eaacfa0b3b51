// Package sim provides the discrete-event simulation kernel that drives all
// virtual-time activity in this repository: the workflow management system,
// the platform model, and the parallel file system all schedule their work as
// events on a single sim.Kernel.
//
// The kernel is deliberately single-threaded: determinism across runs with
// the same seed is a core requirement of the reproduction (see DESIGN.md §5).
// Parallelism is obtained one level up, by running many independent kernels
// (one per workflow run) on separate goroutines.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp measured from the start of a simulation.
// It has nanosecond resolution, like time.Duration, and supports the same
// arithmetic by conversion.
type Time time.Duration

// Common virtual durations.
const (
	Microsecond Time = Time(time.Microsecond)
	Second      Time = Time(time.Second)
)

// Seconds converts a floating-point number of seconds into a virtual Time.
func Seconds(s float64) Time { return Time(s * float64(time.Second)) }

// Milliseconds converts a floating-point number of milliseconds into a Time.
func Milliseconds(ms float64) Time { return Time(ms * float64(time.Millisecond)) }

// Microseconds converts a floating-point number of microseconds into a Time.
func Microseconds(us float64) Time { return Time(us * float64(time.Microsecond)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the time as seconds with microsecond precision, e.g. "12.345678s".
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }
