package darshan

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Op is a DXT operation type.
type Op uint8

// DXT operation types.
const (
	OpRead Op = iota
	OpWrite
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Segment is one DXT trace entry: a single POSIX read or write. TID is this
// reproduction of the paper's extension — the pthread ID of the issuing
// thread, later joined against the WMS's thread-to-task mapping.
type Segment struct {
	Op     Op
	TID    uint64
	Offset int64
	Length int64
	Start  float64 // seconds since workflow start
	End    float64
}

// JobHeader is the per-process log header.
type JobHeader struct {
	JobID          string
	Rank           int
	Hostname       string
	Exe            string
	StartTime      float64
	EndTime        float64
	DXTEnabled     bool
	DXTDropped     int64
	RecordsDropped int64
	Partial        bool // true when instrumentation buffers dropped data
}

// Log is a parsed (or about-to-be-written) Darshan log for one process.
type Log struct {
	Job     JobHeader
	Records []FileRecord
	Heatmap *Heatmap // nil when the HEATMAP module was disabled
}

// TotalOps sums reads+writes across all records from the POSIX counters
// (unaffected by DXT truncation).
func (l *Log) TotalOps() int64 {
	var n int64
	for _, r := range l.Records {
		n += r.Counters.Reads + r.Counters.Writes
	}
	return n
}

// TotalDXTSegments counts recorded DXT trace entries. This is the figure an
// analysis pipeline that counts I/O operations from DXT traces observes —
// and therefore the one that is incomplete when trace buffers overflow, as
// in the paper's ResNet152 runs (footnote 9).
func (l *Log) TotalDXTSegments() int64 {
	var n int64
	for _, r := range l.Records {
		n += int64(len(r.DXT))
	}
	return n
}

// ---- binary format ----
//
// Mirrors the spirit of the real Darshan format: magic + version header,
// length-prefixed strings, fixed-width counters, then DXT segment arrays.
// All integers are little-endian.

var logMagic = [4]byte{'D', 'S', 'H', 'N'}

const logVersion = uint32(2)

// ErrBadLog reports a corrupt or foreign file.
var ErrBadLog = errors.New("darshan: not a darshan log")

type countingWriter struct {
	w   *bufio.Writer
	err error
	buf [8]byte // the word being written
}

func (cw *countingWriter) u8(v uint8) {
	if cw.err == nil {
		cw.err = cw.w.WriteByte(v)
	}
}

// u32 and u64 encode into the writer's scratch word: a word costs no
// allocation (binary.Write boxed every one).
func (cw *countingWriter) u32(v uint32) {
	if cw.err == nil {
		binary.LittleEndian.PutUint32(cw.buf[:4], v)
		_, cw.err = cw.w.Write(cw.buf[:4])
	}
}
func (cw *countingWriter) u64(v uint64) {
	if cw.err == nil {
		binary.LittleEndian.PutUint64(cw.buf[:], v)
		_, cw.err = cw.w.Write(cw.buf[:])
	}
}
func (cw *countingWriter) i64(v int64)   { cw.u64(uint64(v)) }
func (cw *countingWriter) f64(v float64) { cw.u64(math.Float64bits(v)) }
func (cw *countingWriter) str(s string) {
	cw.u32(uint32(len(s)))
	if cw.err == nil {
		_, cw.err = cw.w.WriteString(s)
	}
}
func (cw *countingWriter) bool(b bool) {
	if b {
		cw.u8(1)
	} else {
		cw.u8(0)
	}
}

// Write serializes the log in the binary format. It returns the first
// encoding error encountered.
func (l *Log) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	if _, err := bw.Write(logMagic[:]); err != nil {
		return err
	}
	cw.u32(logVersion)
	cw.str(l.Job.JobID)
	cw.i64(int64(l.Job.Rank))
	cw.str(l.Job.Hostname)
	cw.str(l.Job.Exe)
	cw.f64(l.Job.StartTime)
	cw.f64(l.Job.EndTime)
	cw.bool(l.Job.DXTEnabled)
	cw.i64(l.Job.DXTDropped)
	cw.i64(l.Job.RecordsDropped)
	cw.bool(l.Job.Partial)
	if l.Heatmap != nil {
		cw.bool(true)
		cw.f64(l.Heatmap.BinSeconds)
		cw.u32(uint32(len(l.Heatmap.ReadBytes)))
		for _, v := range l.Heatmap.ReadBytes {
			cw.i64(v)
		}
		for _, v := range l.Heatmap.WriteBytes {
			cw.i64(v)
		}
	} else {
		cw.bool(false)
	}
	cw.u32(uint32(len(l.Records)))
	for _, rec := range l.Records {
		cw.str(rec.Path)
		c := rec.Counters
		for _, v := range []int64{
			c.Opens, c.Reads, c.Writes, c.BytesRead, c.BytesWritten,
			c.MaxByteRead, c.MaxByteWritten,
		} {
			cw.i64(v)
		}
		for _, v := range []float64{
			c.ReadTime, c.WriteTime, c.MetaTime,
			c.OpenStart, c.CloseEnd, c.ReadStart, c.ReadEnd, c.WriteStart, c.WriteEnd,
		} {
			cw.f64(v)
		}
		for _, v := range c.SizeHistRead {
			cw.i64(v)
		}
		for _, v := range c.SizeHistWrite {
			cw.i64(v)
		}
		cw.u32(uint32(len(rec.DXT)))
		for _, s := range rec.DXT {
			cw.u8(uint8(s.Op))
			cw.u64(s.TID)
			cw.i64(s.Offset)
			cw.i64(s.Length)
			cw.f64(s.Start)
			cw.f64(s.End)
		}
	}
	if cw.err != nil {
		return cw.err
	}
	return bw.Flush()
}

type reader struct {
	r   *bufio.Reader
	err error
	buf []byte // one word, then str's bytes: scratch, reused by every read
}

// read fills the first n bytes of the scratch from the stream (io.ReadFull's
// errors, as binary.Read gave them).
func (rd *reader) read(n int) []byte {
	if cap(rd.buf) < n {
		rd.buf = make([]byte, n)
	}
	b := rd.buf[:n]
	_, rd.err = io.ReadFull(rd.r, b)
	return b
}

func (rd *reader) u8() uint8 {
	if rd.err != nil {
		return 0
	}
	b, err := rd.r.ReadByte()
	rd.err = err
	return b
}
func (rd *reader) u32() uint32 {
	if rd.err != nil {
		return 0
	}
	if b := rd.read(4); rd.err == nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}
func (rd *reader) u64() uint64 {
	if rd.err != nil {
		return 0
	}
	if b := rd.read(8); rd.err == nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}
func (rd *reader) i64() int64   { return int64(rd.u64()) }
func (rd *reader) f64() float64 { return math.Float64frombits(rd.u64()) }
func (rd *reader) str() string {
	n := rd.u32()
	if rd.err != nil {
		return ""
	}
	if n > 1<<20 {
		rd.err = fmt.Errorf("%w: oversized string (%d)", ErrBadLog, n)
		return ""
	}
	b := rd.read(int(n))
	if rd.err != nil {
		return ""
	}
	return string(b)
}
func (rd *reader) bool() bool { return rd.u8() != 0 }

// ReadDir parses every *.darshan log in dir, in file-name (so rank) order. A
// directory that does not exist holds no logs.
func ReadDir(dir string) ([]*Log, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.darshan"))
	if err != nil {
		return nil, err
	}
	var logs []*Log
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		l, err := ReadLog(f)
		_ = f.Close()
		if err != nil {
			return nil, fmt.Errorf("darshan: %s: %w", p, err)
		}
		logs = append(logs, l)
	}
	return logs, nil
}

// maxRecords guards against corrupt record counts during parsing.
const maxRecords = 1 << 22

// ReadLog parses a binary log written by WriteTo.
func ReadLog(r io.Reader) (*Log, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLog, err)
	}
	if magic != logMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadLog, magic[:])
	}
	rd := &reader{r: br}
	if v := rd.u32(); v != logVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadLog, v)
	}
	l := &Log{}
	l.Job.JobID = rd.str()
	l.Job.Rank = int(rd.i64())
	l.Job.Hostname = rd.str()
	l.Job.Exe = rd.str()
	l.Job.StartTime = rd.f64()
	l.Job.EndTime = rd.f64()
	l.Job.DXTEnabled = rd.bool()
	l.Job.DXTDropped = rd.i64()
	l.Job.RecordsDropped = rd.i64()
	l.Job.Partial = rd.bool()
	if rd.bool() {
		h := &Heatmap{BinSeconds: rd.f64()}
		nb := rd.u32()
		if nb > maxRecords {
			return nil, fmt.Errorf("%w: implausible heatmap bins %d", ErrBadLog, nb)
		}
		// Grown as the bins arrive, not sized from the count: a few corrupt
		// bytes must not allocate megabytes.
		for i := uint32(0); i < nb && rd.err == nil; i++ {
			h.ReadBytes = append(h.ReadBytes, rd.i64())
		}
		for i := uint32(0); i < nb && rd.err == nil; i++ {
			h.WriteBytes = append(h.WriteBytes, rd.i64())
		}
		l.Heatmap = h
	}
	nrec := rd.u32()
	if nrec > maxRecords {
		return nil, fmt.Errorf("%w: implausible record count %d", ErrBadLog, nrec)
	}
	for i := uint32(0); i < nrec && rd.err == nil; i++ {
		var rec FileRecord
		rec.Path = rd.str()
		c := &rec.Counters
		c.Opens = rd.i64()
		c.Reads = rd.i64()
		c.Writes = rd.i64()
		c.BytesRead = rd.i64()
		c.BytesWritten = rd.i64()
		c.MaxByteRead = rd.i64()
		c.MaxByteWritten = rd.i64()
		c.ReadTime = rd.f64()
		c.WriteTime = rd.f64()
		c.MetaTime = rd.f64()
		c.OpenStart = rd.f64()
		c.CloseEnd = rd.f64()
		c.ReadStart = rd.f64()
		c.ReadEnd = rd.f64()
		c.WriteStart = rd.f64()
		c.WriteEnd = rd.f64()
		for j := range c.SizeHistRead {
			c.SizeHistRead[j] = rd.i64()
		}
		for j := range c.SizeHistWrite {
			c.SizeHistWrite[j] = rd.i64()
		}
		nseg := rd.u32()
		if nseg > maxRecords {
			return nil, fmt.Errorf("%w: implausible segment count %d", ErrBadLog, nseg)
		}
		for j := uint32(0); j < nseg && rd.err == nil; j++ {
			rec.DXT = append(rec.DXT, Segment{
				Op:     Op(rd.u8()),
				TID:    rd.u64(),
				Offset: rd.i64(),
				Length: rd.i64(),
				Start:  rd.f64(),
				End:    rd.f64(),
			})
		}
		l.Records = append(l.Records, rec)
	}
	if rd.err != nil {
		return nil, fmt.Errorf("darshan: read log: %w", rd.err)
	}
	return l, nil
}
