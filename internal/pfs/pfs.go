// Package pfs models a Lustre-like parallel file system: a flat namespace of
// striped files served by a set of object storage targets (OSTs) with shared
// bandwidth, per-operation latency, and optional cross-application
// interference traffic. It is the storage substrate underneath the POSIX
// layer that Darshan instruments.
//
// The model is calibrated loosely on the HPE ClusterStor E1000 systems
// attached to Polaris (the paper's testbed), scaled down to the slice of
// bandwidth a 2-node job actually observes.
package pfs

import (
	"fmt"
	"path"
	"sort"
	"strings"

	"taskprov/internal/sim"
)

// Config describes a file system model. Its JSON form is the storage layer
// of a run's metadata.json, durations in nanoseconds.
type Config struct {
	Name        string `json:"mount"`        // mount name recorded in provenance, e.g. "/lus/grand"
	OSTs        int    `json:"osts"`         // object storage targets
	StripeSize  int64  `json:"stripe_size"`  // bytes per stripe unit
	StripeCount int    `json:"stripe_count"` // OSTs a new file is striped across

	OSTBandwidth float64 `json:"ost_bandwidth"` // bytes/s per OST as seen by this job

	OpenLatency  sim.Time `json:"open_latency_ns"`  // metadata server round trip for open/create
	ReadLatency  sim.Time `json:"read_latency_ns"`  // fixed per-read overhead
	WriteLatency sim.Time `json:"write_latency_ns"` // fixed per-write overhead
	LatencyCV    float64  `json:"latency_cv"`       // lognormal jitter on all latencies

	// Interference models other jobs sharing the PFS: background work is
	// injected into random OSTs as a Poisson process. InterferenceLoad is
	// the average fraction of each OST's bandwidth consumed (0 disables).
	InterferenceLoad      float64 `json:"interference_load"`
	InterferenceBurstMean float64 `json:"interference_burst_mean"` // mean bytes per background burst
}

// Lustre returns a configuration modeled on the paper's Lustre file systems,
// scaled to the share of bandwidth a small job observes.
func Lustre() Config {
	return Config{
		Name:                  "/lus/grand",
		OSTs:                  16,
		StripeSize:            1 << 20,
		StripeCount:           4,
		OSTBandwidth:          2e9,
		OpenLatency:           sim.Microseconds(400),
		ReadLatency:           sim.Microseconds(120),
		WriteLatency:          sim.Microseconds(180),
		LatencyCV:             0.35,
		InterferenceLoad:      0.15,
		InterferenceBurstMean: 64 << 20,
	}
}

// File is one file in the namespace. The model tracks sizes and layout, not
// contents; the POSIX layer synthesizes byte patterns when asked to read.
type File struct {
	Path        string
	Size        int64
	StripeStart int // first OST index of the layout
	StripeCount int
	CreatedAt   sim.Time
	ModifiedAt  sim.Time
}

// FileSystem is an instantiated PFS model bound to a simulation kernel.
type FileSystem struct {
	cfg     Config
	kernel  *sim.Kernel
	osts    []*sim.SharedServer
	files   map[string]*File
	nextOST int
	lat     *sim.RNG
	noise   *sim.RNG
	parts   []ostPart // ostsFor's result, overwritten by the next call
	freeOps []*op     // finished reads and writes, reused LIFO
	freeMDs []*mdOp   // finished opens and creates, reused LIFO

	reads, writes, opens int64
}

// New builds a file system on kernel k. If cfg.InterferenceLoad > 0, a
// background traffic process starts immediately.
func New(k *sim.Kernel, cfg Config) *FileSystem {
	if cfg.OSTs <= 0 {
		panic("pfs: config needs at least one OST")
	}
	if cfg.StripeCount <= 0 || cfg.StripeCount > cfg.OSTs {
		cfg.StripeCount = 1
	}
	if cfg.StripeSize <= 0 {
		cfg.StripeSize = 1 << 20
	}
	fs := &FileSystem{
		cfg:    cfg,
		kernel: k,
		files:  make(map[string]*File),
		lat:    k.RNG("pfs/latency"),
		noise:  k.RNG("pfs/noise"),
	}
	for i := 0; i < cfg.OSTs; i++ {
		fs.osts = append(fs.osts, sim.NewSharedServer(k, fmt.Sprintf("%s/ost%d", cfg.Name, i), cfg.OSTBandwidth, 0))
	}
	if cfg.InterferenceLoad > 0 {
		fs.startInterference()
	}
	return fs
}

// startInterference injects background bursts so that, on average, each OST
// spends InterferenceLoad of its time serving foreign traffic.
func (fs *FileSystem) startInterference() {
	mean := fs.cfg.InterferenceBurstMean
	if mean <= 0 {
		mean = 64 << 20
	}
	// Burst service time at full rate = mean/bw; to hit target load the
	// inter-arrival mean must be serviceTime/load per OST.
	per := (mean / fs.cfg.OSTBandwidth) / fs.cfg.InterferenceLoad
	interMean := per / float64(fs.cfg.OSTs)
	var next func()
	next = func() {
		ost := fs.osts[fs.noise.Intn(len(fs.osts))]
		ost.Submit(fs.noise.Exponential(mean), nil)
		fs.kernel.After(sim.Seconds(fs.noise.Exponential(interMean)), next)
	}
	fs.kernel.After(sim.Seconds(fs.noise.Exponential(interMean)), next)
}

// Normalize cleans a path into the canonical form used as the namespace key.
// An absolute path is cleaned as it is, without building a copy first.
func Normalize(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// mdOp is one open or create in flight: a metadata round trip, recycled like
// op once it lands.
type mdOp struct {
	fs     *FileSystem
	path   string
	create bool
	done   func(*File)
	fire   func()
}

// metadata takes an mdOp off the free list and starts its round trip.
func (fs *FileSystem) metadata(p string, create bool, done func(*File)) {
	fs.opens++
	o := sim.PopFree(&fs.freeMDs)
	if o == nil {
		o = &mdOp{fs: fs}
		o.fire = o.land
	}
	o.path, o.create, o.done = Normalize(p), create, done
	fs.kernel.After(fs.lat.JitterTime(fs.cfg.OpenLatency, fs.cfg.LatencyCV), o.fire)
}

func (o *mdOp) land() {
	fs, p, create, done := o.fs, o.path, o.create, o.done
	o.path, o.done = "", nil
	fs.freeMDs = append(fs.freeMDs, o)
	f := fs.files[p]
	if create {
		if f == nil {
			f = &File{
				Path:        p,
				StripeStart: fs.nextOST,
				StripeCount: fs.cfg.StripeCount,
				CreatedAt:   fs.kernel.Now(),
			}
			fs.nextOST = (fs.nextOST + fs.cfg.StripeCount) % fs.cfg.OSTs
			fs.files[p] = f
		}
		f.Size = 0
		f.ModifiedAt = fs.kernel.Now()
	}
	if done != nil {
		done(f)
	}
}

// Create makes (or truncates) a file and lays it out round-robin over the
// OSTs. It completes after a metadata round trip; done receives the file.
// done must tolerate being called from a kernel event.
func (fs *FileSystem) Create(p string, done func(*File)) { fs.metadata(p, true, done) }

// Open looks up a file; done receives nil if it does not exist.
func (fs *FileSystem) Open(p string, done func(*File)) { fs.metadata(p, false, done) }

// ostPart is one OST's share of a striped byte range.
type ostPart struct {
	ost   *sim.SharedServer
	bytes float64
}

// ostsFor returns the OST servers and per-OST byte counts touched by the
// byte range [off, off+size) of file f under its stripe layout, in the order
// the range first touches them: the order fanout submits in, so it must not
// vary from run to run. The slice is valid until the next call.
func (fs *FileSystem) ostsFor(f *File, off, size int64) []ostPart {
	out := fs.parts[:0]
	ss := fs.cfg.StripeSize
	for remaining, cur := size, off; remaining > 0; {
		stripe := cur / ss
		ost := fs.osts[(f.StripeStart+int(stripe)%f.StripeCount)%fs.cfg.OSTs]
		inStripe := ss - cur%ss
		n := remaining
		if n > inStripe {
			n = inStripe
		}
		i := 0
		for i < len(out) && out[i].ost != ost {
			i++
		}
		if i == len(out) {
			out = append(out, ostPart{ost: ost})
		}
		out[i].bytes += float64(n)
		cur += n
		remaining -= n
	}
	fs.parts = out
	return out
}

// op is one read or write in flight: it waits out the operation's latency,
// then fans out over the OSTs and completes when the last one does. It goes
// back on the file system's free list just before done runs, so begin and
// arrived are method values bound once and an operation allocates nothing.
type op struct {
	fs      *FileSystem
	f       *File
	off, n  int64
	write   bool
	left    int // OST parts still being served
	done    func(n int64)
	begin   func()
	arrived func()
}

// start takes an op off the free list and waits out lat before it begins.
func (fs *FileSystem) start(f *File, off, n int64, write bool, lat sim.Time, done func(n int64)) {
	o := sim.PopFree(&fs.freeOps)
	if o == nil {
		o = &op{fs: fs}
		o.begin, o.arrived = o.fanout, o.partDone
	}
	o.f, o.off, o.n, o.write, o.done = f, off, n, write, done
	fs.kernel.After(lat, o.begin)
}

// fanout charges the byte range to every involved OST; done runs when the
// last one completes (after a zero-delay event when the range is empty).
func (o *op) fanout() {
	fs, f := o.fs, o.f
	if o.write {
		if end := o.off + o.n; end > f.Size {
			f.Size = end
		}
		f.ModifiedAt = fs.kernel.Now()
	}
	parts := fs.ostsFor(f, o.off, o.n)
	if len(parts) == 0 {
		o.left = 1
		fs.kernel.After(0, o.arrived)
		return
	}
	o.left = len(parts)
	for _, p := range parts {
		p.ost.Submit(p.bytes, o.arrived)
	}
}

func (o *op) partDone() {
	o.left--
	if o.left > 0 {
		return
	}
	n, done := o.n, o.done
	o.f, o.done = nil, nil
	o.fs.freeOps = append(o.fs.freeOps, o)
	if done != nil {
		done(n)
	}
}

// Read models reading size bytes at offset off from f. The read is clamped
// to the file size; done receives the number of bytes actually read once the
// slowest involved OST finishes. Reads past EOF complete with 0 after the
// base latency.
func (fs *FileSystem) Read(f *File, off, size int64, done func(n int64)) {
	fs.reads++
	if off < 0 {
		off = 0
	}
	n := size
	if off >= f.Size {
		n = 0
	} else if off+n > f.Size {
		n = f.Size - off
	}
	fs.start(f, off, n, false, fs.lat.JitterTime(fs.cfg.ReadLatency, fs.cfg.LatencyCV), done)
}

// Write models writing size bytes at offset off to f, extending it as
// needed. done receives the number of bytes written.
func (fs *FileSystem) Write(f *File, off, size int64, done func(n int64)) {
	fs.writes++
	if off < 0 {
		off = 0
	}
	fs.start(f, off, size, true, fs.lat.JitterTime(fs.cfg.WriteLatency, fs.cfg.LatencyCV), done)
}

// CreateNow synchronously places a file of the given size in the namespace
// without paying simulated latency. It is the dataset-staging entry point:
// input data exists before the workflow (and its timing) starts.
func (fs *FileSystem) CreateNow(p string, size int64) *File {
	p = Normalize(p)
	f, ok := fs.files[p]
	if !ok {
		f = &File{
			Path:        p,
			StripeStart: fs.nextOST,
			StripeCount: fs.cfg.StripeCount,
			CreatedAt:   fs.kernel.Now(),
		}
		fs.nextOST = (fs.nextOST + fs.cfg.StripeCount) % fs.cfg.OSTs
		fs.files[p] = f
	}
	f.Size = size
	f.ModifiedAt = fs.kernel.Now()
	return f
}

// List returns the paths currently in the namespace matching prefix, sorted.
func (fs *FileSystem) List(prefix string) []string {
	prefix = Normalize(prefix)
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Lookup returns the file at path p without paying simulated latency; it is
// a synchronous accessor for tests and analysis code, not a modeled op.
func (fs *FileSystem) Lookup(p string) *File { return fs.files[Normalize(p)] }

// Describe returns the storage metadata for the provenance chart: the model
// as built, with the stripe layout New defaulted.
func (fs *FileSystem) Describe() Config { return fs.cfg }
