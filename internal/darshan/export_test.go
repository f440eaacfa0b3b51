package darshan

// Observers the in-package tests read a runtime, a heatmap and a log through.

// DXTSamplingActive reports whether adaptive sampling has engaged.
func (r *Runtime) DXTSamplingActive() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dxtSampling
}

// DXTDropped reports how many trace segments were lost to the buffer limit.
func (r *Runtime) DXTDropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dxtDropped
}

// RecordsDropped reports operations lost because the file record table was
// full.
func (r *Runtime) RecordsDropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recordsDropped
}

// TotalBytes returns the cumulative read and write bytes.
func (h *Heatmap) TotalBytes() (read, write int64) {
	for i := range h.ReadBytes {
		read += h.ReadBytes[i]
		write += h.WriteBytes[i]
	}
	return read, write
}

// Span returns the covered time range in seconds.
func (h *Heatmap) Span() float64 { return h.BinSeconds * float64(len(h.ReadBytes)) }

// Record returns the record for path, if present.
func (l *Log) Record(path string) (FileRecord, bool) {
	for _, r := range l.Records {
		if r.Path == path {
			return r, true
		}
	}
	return FileRecord{}, false
}
