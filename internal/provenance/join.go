package provenance

import "sort"

// ThreadWindows is the index behind the paper's central fusion (§III-E3): a
// Darshan DXT segment belongs to the task that was executing on the same
// (hostname, pthread ID) when the segment started. Add the execution windows,
// then Find each segment's owner. perfrecup.AttributeIOToTasks and the
// what-if model's I/O decomposition are both this one join.
type ThreadWindows struct {
	byThread map[threadID][]threadWindow
	sorted   bool
}

type threadID struct {
	host string
	tid  uint64
}

type threadWindow struct {
	start, stop float64
	ref         int
}

// Add records that the task the caller knows as ref ran on (host, tid) from
// start to stop.
func (w *ThreadWindows) Add(host string, tid uint64, start, stop float64, ref int) {
	if w.byThread == nil {
		w.byThread = make(map[threadID][]threadWindow)
	}
	k := threadID{host, tid}
	w.byThread[k] = append(w.byThread[k], threadWindow{start, stop, ref})
	w.sorted = false
}

// Find returns the ref of the window on (host, tid) that holds the instant
// at: the last one starting at or before it, provided it has not stopped
// before it (a thread runs one task at a time, so no earlier window can hold
// it either).
func (w *ThreadWindows) Find(host string, tid uint64, at float64) (ref int, ok bool) {
	if !w.sorted {
		for _, ws := range w.byThread {
			sort.Slice(ws, func(a, b int) bool { return ws[a].start < ws[b].start })
		}
		w.sorted = true
	}
	ws := w.byThread[threadID{host, tid}]
	// The first window starting after at; the one before it is the candidate.
	i := sort.Search(len(ws), func(i int) bool { return ws[i].start > at })
	if i == 0 || at > ws[i-1].stop {
		return 0, false
	}
	return ws[i-1].ref, true
}
