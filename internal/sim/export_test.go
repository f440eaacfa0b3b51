package sim

// Cancel prevents the event from firing. Cancelling an event that already
// fired (or was already cancelled) is a no-op. The event stays queued until
// its time comes; Kernel.Unschedule removes one at once. No program cancels
// lazily any more — the kernel's check of the flag is exercised from the tests
// alone.
func (e *Event) Cancel() { e.cancel = true }
