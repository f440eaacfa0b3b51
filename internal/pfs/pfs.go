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

// Config describes a file system model.
type Config struct {
	Name        string // mount name recorded in provenance, e.g. "/lus/grand"
	OSTs        int    // object storage targets
	StripeSize  int64  // bytes per stripe unit
	StripeCount int    // OSTs a new file is striped across

	OSTBandwidth float64 // bytes/s per OST as seen by this job

	OpenLatency  sim.Time // metadata server round trip for open/create
	ReadLatency  sim.Time // fixed per-read overhead
	WriteLatency sim.Time // fixed per-write overhead
	LatencyCV    float64  // lognormal jitter on all latencies

	// Interference models other jobs sharing the PFS: background work is
	// injected into random OSTs as a Poisson process. InterferenceLoad is
	// the average fraction of each OST's bandwidth consumed (0 disables).
	InterferenceLoad      float64
	InterferenceBurstMean float64 // mean bytes per background burst
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
func Normalize(p string) string {
	p = path.Clean("/" + strings.TrimPrefix(p, "/"))
	return p
}

// Create makes (or truncates) a file and lays it out round-robin over the
// OSTs. It completes after a metadata round trip; done receives the file.
// done must tolerate being called from a kernel event.
func (fs *FileSystem) Create(p string, done func(*File)) {
	fs.opens++
	p = Normalize(p)
	fs.kernel.After(fs.lat.JitterTime(fs.cfg.OpenLatency, fs.cfg.LatencyCV), func() {
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
		f.Size = 0
		f.ModifiedAt = fs.kernel.Now()
		if done != nil {
			done(f)
		}
	})
}

// Open looks up a file; done receives nil if it does not exist.
func (fs *FileSystem) Open(p string, done func(*File)) {
	fs.opens++
	p = Normalize(p)
	fs.kernel.After(fs.lat.JitterTime(fs.cfg.OpenLatency, fs.cfg.LatencyCV), func() {
		if done != nil {
			done(fs.files[p])
		}
	})
}

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
	lat := fs.lat.JitterTime(fs.cfg.ReadLatency, fs.cfg.LatencyCV)
	fs.kernel.After(lat, func() {
		fs.fanout(f, off, n, func() {
			if done != nil {
				done(n)
			}
		})
	})
}

// Write models writing size bytes at offset off to f, extending it as
// needed. done receives the number of bytes written.
func (fs *FileSystem) Write(f *File, off, size int64, done func(n int64)) {
	fs.writes++
	if off < 0 {
		off = 0
	}
	lat := fs.lat.JitterTime(fs.cfg.WriteLatency, fs.cfg.LatencyCV)
	fs.kernel.After(lat, func() {
		if end := off + size; end > f.Size {
			f.Size = end
		}
		f.ModifiedAt = fs.kernel.Now()
		fs.fanout(f, off, size, func() {
			if done != nil {
				done(size)
			}
		})
	})
}

// fanout charges the byte range to every involved OST and calls done when
// the last one completes.
func (fs *FileSystem) fanout(f *File, off, size int64, done func()) {
	parts := fs.ostsFor(f, off, size)
	if len(parts) == 0 {
		fs.kernel.After(0, done)
		return
	}
	left := len(parts)
	arrived := func() {
		left--
		if left == 0 {
			done()
		}
	}
	for _, p := range parts {
		p.ost.Submit(p.bytes, arrived)
	}
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

// Describe returns the storage metadata for the provenance chart.
func (fs *FileSystem) Describe() Description {
	return Description{
		Mount:        fs.cfg.Name,
		OSTs:         fs.cfg.OSTs,
		StripeSize:   fs.cfg.StripeSize,
		StripeCount:  fs.cfg.StripeCount,
		OSTBandwidth: fs.cfg.OSTBandwidth,
	}
}

// Description is the serializable PFS metadata.
type Description struct {
	Mount        string  `json:"mount"`
	OSTs         int     `json:"osts"`
	StripeSize   int64   `json:"stripe_size"`
	StripeCount  int     `json:"stripe_count"`
	OSTBandwidth float64 `json:"ost_bandwidth"`
}
