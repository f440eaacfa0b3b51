// Package darshan reimplements the behaviour of the Darshan I/O
// characterization tool that the paper extends: a per-process runtime
// intercepts POSIX operations, accumulates per-file counters (the POSIX
// module) and full traces of individual operations (the DXT module), and
// serializes everything into a compact binary log at shutdown.
//
// The paper's extension is reproduced here: every DXT segment carries the
// POSIX thread (pthread) ID that issued the operation, so analysis can join
// I/O records with the WMS task that ran on that thread at that time
// (§III-E3). The DXT module also keeps Darshan's bounded trace buffers —
// including the truncation the paper hits on ResNet152 (footnote 9).
package darshan

import (
	"sort"
	"sync"

	"taskprov/internal/posixio"
	"taskprov/internal/sim"
)

// Config describes one instrumented process (one Dask worker in the paper's
// deployment: workers are separate POSIX processes).
type Config struct {
	JobID    string // scheduler job ID this process belongs to
	Rank     int    // process index within the job (worker index)
	Hostname string
	Exe      string // instrumented executable name

	// DXT controls the extended tracing module.
	DXTEnabled bool
	// DXTBufferSegments caps the total number of trace segments the DXT
	// module may record for this process; once exhausted, further segments
	// are dropped and the log is flagged partial — reproducing Darshan's
	// default instrumentation buffer limit that truncated the paper's
	// ResNet152 I/O counts. Zero means use DefaultDXTBufferSegments.
	DXTBufferSegments int

	// MaxFileRecords caps the per-module file record table, like Darshan's
	// DARSHAN_DEF_MOD_REC_COUNT: operations on files beyond the cap are
	// not tracked at all. Zero means DefaultMaxFileRecords.
	MaxFileRecords int

	// DXTAdaptiveSampling implements the paper's future-work idea of
	// "dynamically adjusting our data capture in response to changes in
	// workflow behavior": once the DXT buffer falls below a quarter of its
	// budget, only every 4th segment is recorded, stretching the remaining
	// memory over the rest of the run instead of truncating it outright.
	DXTAdaptiveSampling bool
}

// dxtSampleStride is the sampling rate in adaptive mode.
const dxtSampleStride = 4

// DefaultMaxFileRecords matches Darshan's default per-module record count.
const DefaultMaxFileRecords = 1024

// DefaultDXTBufferSegments approximates Darshan's default per-module memory
// budget expressed in segments.
const DefaultDXTBufferSegments = 16384

// Size-histogram bucket boundaries, matching Darshan's POSIX module
// SIZE_READ_*/SIZE_WRITE_* counter buckets.
var sizeBucketBounds = []int64{
	100, 1 << 10, 10 << 10, 100 << 10, 1 << 20, 4 << 20, 10 << 20, 100 << 20, 1 << 30,
}

// NumSizeBuckets is the number of access-size histogram buckets.
const NumSizeBuckets = 10

// SizeBucket returns the histogram bucket index for an access size.
func SizeBucket(n int64) int {
	for i, b := range sizeBucketBounds {
		if n < b {
			return i
		}
	}
	return NumSizeBuckets - 1
}

// SizeBucketLabel returns a human-readable label for bucket i.
func SizeBucketLabel(i int) string {
	labels := []string{
		"0-100", "100-1K", "1K-10K", "10K-100K", "100K-1M",
		"1M-4M", "4M-10M", "10M-100M", "100M-1G", "1G+",
	}
	if i < 0 || i >= len(labels) {
		return "?"
	}
	return labels[i]
}

// Counters is the per-file POSIX-module record.
type Counters struct {
	Opens        int64
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64

	MaxByteRead    int64 // highest offset+len read
	MaxByteWritten int64

	ReadTime  float64 // cumulative seconds in reads
	WriteTime float64
	MetaTime  float64 // cumulative seconds in open/close

	OpenStart  float64 // first open start timestamp (seconds)
	CloseEnd   float64 // last close timestamp
	ReadStart  float64 // first read start; 0 if none
	ReadEnd    float64
	WriteStart float64
	WriteEnd   float64

	SizeHistRead  [NumSizeBuckets]int64
	SizeHistWrite [NumSizeBuckets]int64
}

// FileRecord combines the POSIX counters and DXT trace for one file.
type FileRecord struct {
	Path     string
	Counters Counters
	DXT      []Segment
}

// Runtime is the per-process instrumentation state. It implements
// posixio.Tracer. All methods are safe for concurrent use.
type Runtime struct {
	cfg Config

	mu             sync.Mutex
	files          map[string]*FileRecord
	heatmap        *Heatmap
	dxtBudget      int
	dxtInitial     int
	dxtSampleSkip  int
	dxtSampling    bool
	dxtDropped     int64
	recordsDropped int64
	startClock     sim.Time
	endClock       sim.Time
	clockStarted   bool
}

// NewRuntime creates an instrumentation runtime.
func NewRuntime(cfg Config) *Runtime {
	if cfg.DXTBufferSegments <= 0 {
		cfg.DXTBufferSegments = DefaultDXTBufferSegments
	}
	if cfg.MaxFileRecords <= 0 {
		cfg.MaxFileRecords = DefaultMaxFileRecords
	}
	r := &Runtime{
		cfg:        cfg,
		files:      make(map[string]*FileRecord),
		dxtBudget:  cfg.DXTBufferSegments,
		dxtInitial: cfg.DXTBufferSegments,
	}
	r.heatmap = newHeatmap(DefaultHeatmapBins)
	return r
}

var _ posixio.Tracer = (*Runtime)(nil)

// record returns the file's record, creating it if the record table has
// room. It returns nil once the table is full (the operation goes
// unobserved, as in Darshan when its record memory is exhausted).
func (r *Runtime) record(path string) *FileRecord {
	fr, ok := r.files[path]
	if !ok {
		if len(r.files) >= r.cfg.MaxFileRecords {
			r.recordsDropped++
			return nil
		}
		fr = &FileRecord{Path: path}
		r.files[path] = fr
	}
	return fr
}

func (r *Runtime) touchClock(start, end sim.Time) {
	if !r.clockStarted || start < r.startClock {
		r.startClock = start
		r.clockStarted = true
	}
	if end > r.endClock {
		r.endClock = end
	}
}

// addSegment appends a DXT segment if the module is enabled and the buffer
// has room; otherwise the segment is dropped and counted. In adaptive mode
// the module downshifts to 1-in-N sampling when the budget runs low,
// trading uniform coverage for completeness of the tail.
func (r *Runtime) addSegment(fr *FileRecord, seg Segment) {
	if !r.cfg.DXTEnabled {
		return
	}
	if r.dxtBudget <= 0 {
		r.dxtDropped++
		return
	}
	if r.cfg.DXTAdaptiveSampling && !r.dxtSampling && r.dxtBudget*4 <= r.dxtInitial {
		r.dxtSampling = true
	}
	if r.dxtSampling {
		r.dxtSampleSkip++
		if r.dxtSampleSkip%dxtSampleStride != 0 {
			r.dxtDropped++
			return
		}
	}
	r.dxtBudget--
	fr.DXT = append(fr.DXT, seg)
}

// OpenEvent implements posixio.Tracer.
func (r *Runtime) OpenEvent(rec posixio.OpRecord, created bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.touchClock(rec.Start, rec.End)
	fr := r.record(rec.Path)
	if fr == nil {
		return
	}
	c := &fr.Counters
	c.Opens++
	c.MetaTime += (rec.End - rec.Start).Seconds()
	if c.OpenStart == 0 || rec.Start.Seconds() < c.OpenStart {
		c.OpenStart = rec.Start.Seconds()
	}
}

// ReadEvent implements posixio.Tracer.
func (r *Runtime) ReadEvent(rec posixio.OpRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.touchClock(rec.Start, rec.End)
	r.heatmap.add(rec.End.Seconds(), rec.Bytes, false)
	fr := r.record(rec.Path)
	if fr == nil {
		return
	}
	c := &fr.Counters
	c.Reads++
	c.BytesRead += rec.Bytes
	if end := rec.Offset + rec.Bytes; end > c.MaxByteRead {
		c.MaxByteRead = end
	}
	c.ReadTime += (rec.End - rec.Start).Seconds()
	if c.ReadStart == 0 || rec.Start.Seconds() < c.ReadStart {
		c.ReadStart = rec.Start.Seconds()
	}
	if rec.End.Seconds() > c.ReadEnd {
		c.ReadEnd = rec.End.Seconds()
	}
	c.SizeHistRead[SizeBucket(rec.Bytes)]++
	r.addSegment(fr, Segment{
		Op: OpRead, TID: rec.TID, Offset: rec.Offset, Length: rec.Bytes,
		Start: rec.Start.Seconds(), End: rec.End.Seconds(),
	})
}

// WriteEvent implements posixio.Tracer.
func (r *Runtime) WriteEvent(rec posixio.OpRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.touchClock(rec.Start, rec.End)
	r.heatmap.add(rec.End.Seconds(), rec.Bytes, true)
	fr := r.record(rec.Path)
	if fr == nil {
		return
	}
	c := &fr.Counters
	c.Writes++
	c.BytesWritten += rec.Bytes
	if end := rec.Offset + rec.Bytes; end > c.MaxByteWritten {
		c.MaxByteWritten = end
	}
	c.WriteTime += (rec.End - rec.Start).Seconds()
	if c.WriteStart == 0 || rec.Start.Seconds() < c.WriteStart {
		c.WriteStart = rec.Start.Seconds()
	}
	if rec.End.Seconds() > c.WriteEnd {
		c.WriteEnd = rec.End.Seconds()
	}
	c.SizeHistWrite[SizeBucket(rec.Bytes)]++
	r.addSegment(fr, Segment{
		Op: OpWrite, TID: rec.TID, Offset: rec.Offset, Length: rec.Bytes,
		Start: rec.Start.Seconds(), End: rec.End.Seconds(),
	})
}

// CloseEvent implements posixio.Tracer.
func (r *Runtime) CloseEvent(rec posixio.OpRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.touchClock(rec.Start, rec.End)
	fr := r.record(rec.Path)
	if fr == nil {
		return
	}
	if ts := rec.End.Seconds(); ts > fr.Counters.CloseEnd {
		fr.Counters.CloseEnd = ts
	}
}

// Snapshot produces the immutable log of everything recorded so far, sorted
// by path — the moment "darshan_shutdown" would run in the real tool.
func (r *Runtime) Snapshot() *Log {
	r.mu.Lock()
	defer r.mu.Unlock()
	log := &Log{
		Job: JobHeader{
			JobID:          r.cfg.JobID,
			Rank:           r.cfg.Rank,
			Hostname:       r.cfg.Hostname,
			Exe:            r.cfg.Exe,
			StartTime:      r.startClock.Seconds(),
			EndTime:        r.endClock.Seconds(),
			DXTEnabled:     r.cfg.DXTEnabled,
			DXTDropped:     r.dxtDropped,
			RecordsDropped: r.recordsDropped,
			Partial:        r.dxtDropped > 0 || r.recordsDropped > 0,
		},
	}
	log.Heatmap = r.heatmap.clone()
	for _, fr := range r.files {
		cp := *fr
		cp.DXT = append([]Segment(nil), fr.DXT...)
		log.Records = append(log.Records, cp)
	}
	sort.Slice(log.Records, func(i, j int) bool { return log.Records[i].Path < log.Records[j].Path })
	return log
}
