package live

import "sort"

// WindowSnapshot is one time-window's worth of activity, as exposed by
// Summary.Windows: the streaming equivalent of perfrecup's §IV-D "zooming
// through a specific time period", maintained online over the sim clock.
type WindowSnapshot struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`

	TasksFinished  int     `json:"tasks_finished"`
	ComputeSeconds float64 `json:"compute_seconds"`

	Transfers     int   `json:"transfers"`
	TransferBytes int64 `json:"transfer_bytes"`

	IOOps   int   `json:"io_ops"`
	IOBytes int64 `json:"io_bytes"`

	Warnings map[string]int `json:"warnings,omitempty"`

	// WorkerIOBytes is the per-worker I/O volume inside the window, the
	// basis of the bandwidth-collapse detector.
	WorkerIOBytes map[string]int64 `json:"worker_io_bytes,omitempty"`
}

// windowBucket is one live ring slot. Buckets are recycled in place as the
// sim clock advances; epoch identifies which absolute window a slot
// currently holds.
type windowBucket struct {
	epoch int64 // floor(t / width); -1 = never used
	WindowSnapshot
}

// windowRing keeps the last n time windows of width seconds each, indexed by
// the sim clock. Events slightly out of order (older than the newest window
// but still inside the ring) land in their own bucket; events older than the
// ring are dropped — the cumulative aggregates are unaffected either way.
type windowRing struct {
	width    float64
	buckets  []windowBucket
	maxEpoch int64
}

func newWindowRing(width float64, n int) *windowRing {
	if width <= 0 {
		width = 10
	}
	if n <= 0 {
		n = 6
	}
	r := &windowRing{width: width, buckets: make([]windowBucket, n)}
	for i := range r.buckets {
		r.buckets[i].epoch = -1
	}
	return r
}

// bucket returns the bucket covering time t, advancing the ring as needed.
// It returns nil when t is older than the ring's horizon.
func (r *windowRing) bucket(t float64) *windowBucket {
	if t < 0 {
		return nil
	}
	epoch := int64(t / r.width)
	if epoch > r.maxEpoch {
		r.maxEpoch = epoch
	}
	if epoch <= r.maxEpoch-int64(len(r.buckets)) {
		return nil // fell off the back of the ring
	}
	b := &r.buckets[int(epoch%int64(len(r.buckets)))]
	if b.epoch != epoch {
		*b = windowBucket{epoch: epoch}
		b.From = float64(epoch) * r.width
		b.To = b.From + r.width
	}
	return b
}

// addWarning records one warning of the given kind at time t.
func (r *windowRing) addWarning(t float64, kind string) {
	if b := r.bucket(t); b != nil {
		if b.Warnings == nil {
			b.Warnings = make(map[string]int)
		}
		b.Warnings[kind]++
	}
}

// snapshot returns copies of the populated windows, oldest first.
func (r *windowRing) snapshot() []WindowSnapshot {
	var out []WindowSnapshot
	for i := range r.buckets {
		b := &r.buckets[i]
		// Skip empty slots and slots whose window has already fallen off the
		// back of the ring but has not been recycled yet — bucket() rejects
		// new events for those epochs, so exposing them would show windows
		// that silently stopped accumulating.
		if b.epoch < 0 || b.epoch <= r.maxEpoch-int64(len(r.buckets)) {
			continue
		}
		ws := b.WindowSnapshot
		ws.Warnings = copyIntMap(b.Warnings)
		ws.WorkerIOBytes = copyInt64Map(b.WorkerIOBytes)
		out = append(out, ws)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].From < out[b].From })
	return out
}

func copyIntMap(m map[string]int) map[string]int {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyInt64Map(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
