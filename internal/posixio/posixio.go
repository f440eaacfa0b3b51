// Package posixio provides a synchronous, POSIX-flavoured file API on top of
// the pfs model, for use inside sim.Proc task bodies. It is the layer the
// Darshan reproduction instruments: every open/read/write/close can be
// observed by a Tracer with the issuing thread's ID and virtual timestamps —
// exactly the join keys the paper adds to DXT (§III-E3).
package posixio

import (
	"errors"
	"fmt"

	"taskprov/internal/pfs"
	"taskprov/internal/sim"
)

// Open flags, a minimal subset of POSIX semantics.
const (
	RDONLY = 1 << iota // open existing file for reading
	WRONLY             // open for writing
	CREATE             // create (truncate) the file
)

// ErrNotExist is returned when opening a missing file without CREATE.
var ErrNotExist = errors.New("posixio: file does not exist")

// OpRecord describes one completed POSIX operation as seen by a Tracer.
type OpRecord struct {
	Path   string
	TID    uint64 // issuing thread ("pthread") ID
	Offset int64
	Bytes  int64
	Start  sim.Time
	End    sim.Time
}

// Tracer observes POSIX operations. The Darshan runtime implements it; a nil
// tracer disables instrumentation at zero cost.
type Tracer interface {
	OpenEvent(rec OpRecord, created bool)
	ReadEvent(rec OpRecord)
	WriteEvent(rec OpRecord)
	CloseEvent(rec OpRecord)
}

// FS binds the POSIX layer to a PFS instance.
type FS struct {
	pfs  *pfs.FileSystem
	free []*ioOp // finished operations, reused LIFO
}

// ioKind is what an ioOp asks of the file system.
type ioKind uint8

const (
	ioRead ioKind = iota
	ioWrite
	ioOpen
	ioCreate
)

// ioOp carries one blocking operation between the process that issues it and
// the PFS completion that resumes it. Its method values are bound once, and it
// goes back on the FS's free list when the process has its result, so an
// operation allocates nothing.
type ioOp struct {
	fs        *FS
	kind      ioKind
	path      string    // open, create
	file      *pfs.File // read, write; what open or create found
	off, size int64
	n         int64 // bytes read or written
	resume    func()
	issue     func(done func())
	landed    func(n int64)
	opened    func(f *pfs.File)
}

func (op *ioOp) start(done func()) {
	op.resume = done
	fsys := op.fs.pfs
	switch op.kind {
	case ioRead:
		fsys.Read(op.file, op.off, op.size, op.landed)
	case ioWrite:
		fsys.Write(op.file, op.off, op.size, op.landed)
	case ioOpen:
		fsys.Open(op.path, op.opened)
	case ioCreate:
		fsys.Create(op.path, op.opened)
	}
}

func (op *ioOp) land(n int64) {
	op.n = n
	op.resume()
}

func (op *ioOp) open(f *pfs.File) {
	op.file = f
	op.resume()
}

// await issues one operation from process p and blocks until it lands,
// returning the file it found (open, create) or the bytes it moved (read,
// write).
func (fs *FS) await(p *sim.Proc, kind ioKind, path string, file *pfs.File, off, size int64) (*pfs.File, int64) {
	op := sim.PopFree(&fs.free)
	if op == nil {
		op = &ioOp{fs: fs}
		op.issue, op.landed, op.opened = op.start, op.land, op.open
	}
	op.kind, op.path, op.file, op.off, op.size = kind, path, file, off, size
	p.Await(op.issue)
	file, n := op.file, op.n
	op.path, op.file, op.n, op.resume = "", nil, 0, nil
	fs.free = append(fs.free, op)
	return file, n
}

// NewFS wraps a pfs.FileSystem.
func NewFS(fsys *pfs.FileSystem) *FS { return &FS{pfs: fsys} }

// PFS exposes the underlying file system model.
func (fs *FS) PFS() *pfs.FileSystem { return fs.pfs }

// File is an open file descriptor bound to the thread that opened it. Dask
// workers execute each task on a dedicated thread, so a descriptor never
// migrates between threads in this model.
type File struct {
	fs     *FS
	file   *pfs.File
	path   string
	tid    uint64
	tracer Tracer
	offset int64
	closed bool
	dilate func() float64
}

// SetDilation installs a service-time dilation source for this descriptor:
// after each blocking read or write, the issuing process sleeps an extra
// (factor−1) times the operation's elapsed time, where factor is sampled at
// completion. Brownout fault injection uses this to model a slow-not-dead
// worker whose I/O crawls; the stretched window is what the tracer records,
// so Darshan-side views see the degradation too. A nil or ≤1 factor is free.
func (f *File) SetDilation(fn func() float64) { f.dilate = fn }

// dilated stretches the just-finished operation that started at start by the
// descriptor's dilation factor, returning once the extra service time has
// elapsed.
func (f *File) dilated(p *sim.Proc, start sim.Time) {
	if f.dilate == nil {
		return
	}
	if factor := f.dilate(); factor > 1 {
		p.Sleep(sim.Time(float64(p.Now()-start) * (factor - 1)))
	}
}

// Open opens path with the given flags from process p, on behalf of thread
// tid, reporting operations to tracer (which may be nil). It blocks the
// process for the metadata round trip.
func (fs *FS) Open(p *sim.Proc, tracer Tracer, tid uint64, path string, flags int) (*File, error) {
	start := p.Now()
	created := flags&CREATE != 0
	kind := ioOpen
	if created {
		kind = ioCreate
	}
	got, _ := fs.await(p, kind, path, nil, 0, 0)
	if got == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	f := &File{fs: fs, file: got, path: got.Path, tid: tid, tracer: tracer}
	if tracer != nil {
		tracer.OpenEvent(OpRecord{Path: f.path, TID: tid, Start: start, End: p.Now()}, created)
	}
	return f, nil
}

// Pread reads size bytes at offset off, blocking the process until the I/O
// completes. It returns the number of bytes actually read (clamped at EOF).
func (f *File) Pread(p *sim.Proc, off, size int64) int64 {
	start := p.Now()
	_, n := f.fs.await(p, ioRead, "", f.file, off, size)
	f.dilated(p, start)
	if f.tracer != nil {
		f.tracer.ReadEvent(OpRecord{Path: f.path, TID: f.tid, Offset: off, Bytes: n, Start: start, End: p.Now()})
	}
	return n
}

// Pwrite writes size bytes at offset off, blocking the process until the
// I/O completes. It returns the number of bytes written.
func (f *File) Pwrite(p *sim.Proc, off, size int64) int64 {
	start := p.Now()
	_, n := f.fs.await(p, ioWrite, "", f.file, off, size)
	f.dilated(p, start)
	if f.tracer != nil {
		f.tracer.WriteEvent(OpRecord{Path: f.path, TID: f.tid, Offset: off, Bytes: n, Start: start, End: p.Now()})
	}
	return n
}

// Read reads from the current offset and advances it.
func (f *File) Read(p *sim.Proc, size int64) int64 {
	n := f.Pread(p, f.offset, size)
	f.offset += n
	return n
}

// Write writes at the current offset and advances it.
func (f *File) Write(p *sim.Proc, size int64) int64 {
	n := f.Pwrite(p, f.offset, size)
	f.offset += n
	return n
}

// Close releases the descriptor. Closing twice is a no-op.
func (f *File) Close(p *sim.Proc) {
	if f.closed {
		return
	}
	f.closed = true
	now := p.Now()
	if f.tracer != nil {
		f.tracer.CloseEvent(OpRecord{Path: f.path, TID: f.tid, Start: now, End: now})
	}
}
