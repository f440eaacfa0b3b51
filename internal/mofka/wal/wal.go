// Package wal is a durable, segment-based, append-only event log: the
// on-disk backend behind Mofka partitions. Records are length-prefixed and
// CRC32-C-checked, appends are batched with a configurable fsync policy,
// segments rotate at a size threshold with count/byte/age-based retention,
// and opening a log recovers from crashes by truncating a torn tail and
// rebuilding the next append offset from what survives on disk.
//
// One Log corresponds to one Mofka partition: offsets are dense from the
// first retained record and equal the partition's event IDs, so a replayed
// log reconstructs the exact event stream a live broker served.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy controls when appended batches are fsynced to disk.
type SyncPolicy int

const (
	// SyncBatch makes every appended batch crash-durable before AppendBatch
	// returns: an fsync covers it, its own or the one a concurrent append's
	// batch shares with it. The default.
	SyncBatch SyncPolicy = iota
	// SyncInterval writes every batch to the OS but fsyncs at most once per
	// SyncEvery (amortized durability: a crash can lose the last interval).
	SyncInterval
	// SyncNever leaves syncing to the OS page cache (and Close/Sync calls).
	// Fastest; a machine crash can lose recent batches, a process crash
	// cannot (data is written to the kernel on every batch).
	SyncNever
)

// fsync forces a segment file to stable storage. It is a variable only so
// that tests can hold an fsync back or fail it.
var fsync = (*os.File).Sync

// ParseSyncPolicy maps the CLI spellings (batch|interval|never) to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch", "":
		return SyncBatch, nil
	case "interval":
		return SyncInterval, nil
	case "never", "none":
		return SyncNever, nil
	}
	return SyncBatch, fmt.Errorf("wal: unknown sync policy %q (want batch|interval|never)", s)
}

// Retention bounds how many closed segments are kept. Zero values mean
// unlimited; the active segment is never deleted.
type Retention struct {
	// MaxSegments caps the total number of segments (including active).
	MaxSegments int
	// MaxBytes caps the total on-disk size across segments.
	MaxBytes int64
	// MaxAge drops closed segments whose newest record is older than this.
	MaxAge time.Duration
}

// Options tunes a log. The zero value is usable: 64 MiB segments, SyncBatch,
// unlimited retention.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this size.
	// Default 64 MiB.
	SegmentBytes int64
	// Sync selects the fsync policy (default SyncBatch).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval period (default 100ms).
	SyncEvery time.Duration
	// Retention bounds segment count/bytes/age (default: keep everything).
	Retention Retention
	// MaxRecordBytes is the framing sanity bound (default 64 MiB). Records
	// larger than this are rejected on append and treated as corruption on
	// read.
	MaxRecordBytes int
	// ReadOnly opens the log for replay only: a torn tail is skipped but NOT
	// truncated on disk, and appends fail. Post-mortem analysis uses this so
	// inspection never mutates the evidence.
	ReadOnly bool
}

func (o *Options) setDefaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 64 << 20
	}
}

const segSuffix = ".seg"

// segment is one closed or active log file. base is the offset of its first
// record; records and size are exact (rebuilt by the open-time scan).
type segment struct {
	base    uint64
	path    string
	records uint64
	size    int64
	mtime   time.Time
}

// Log is a segmented append-only record log rooted at one directory. All
// methods are safe for concurrent use; appends are serialized.
//
// An append is two steps. WriteBatch frames a batch and hands it to the OS
// with one write, which fixes its offsets; Sync makes everything written so
// far durable, with the fsync running outside the log's mutex so that the
// next batches are written while the disk is busy and share the next fsync.
// AppendBatch is the two together, under the configured policy. A write or
// an fsync that fails poisons the log: what reached stable storage is no
// longer known, so every later append and sync reports the same error.
type Log struct {
	dir  string
	opts Options

	// syncMu is held across every fsync of the active segment and by whatever
	// closes or replaces that file (rotation, TruncateTo, Close), so the file
	// under an in-flight fsync stays open. Taken before mu, never under it.
	syncMu sync.Mutex

	mu       sync.Mutex
	segs     []segment // ordered by base; last is active (when writable)
	active   *os.File
	buf      []byte // the frames of the batch being written, reused
	next     uint64 // offset the next appended record receives
	durable  uint64 // records below this offset are on stable storage
	first    uint64 // offset of the oldest retained record
	torn     int64  // bytes discarded (or skipped, read-only) at open
	lastSync time.Time
	closed   bool
	err      error // sticky: set by a failed write or fsync
}

// Open opens (creating if needed) the log in dir, recovering from any torn
// tail left by a crash: the newest segment is scanned record-by-record and
// truncated at the last valid frame, and the next append offset is rebuilt
// from the surviving records.
func Open(dir string, opts Options) (*Log, error) {
	return OpenReplay(dir, opts, func([]Record) error { return nil })
}

// OpenReplay is Open that also hands every record the log holds to visit, in
// offset order and in batches, during the one validating pass recovery makes
// over the segments — so a caller that rebuilds state from the log reads each
// segment once. The records alias the read buffer: they are valid only
// during the call. An error from visit fails the open. On a log with interior
// corruption visit has seen the records before the corrupt frame by the time
// OpenReplay returns ErrCorrupt.
func OpenReplay(dir string, opts Options, visit func(recs []Record) error) (*Log, error) {
	opts.setDefaults()
	l := &Log{dir: dir, opts: opts}
	if !opts.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("wal: open %s: %w", dir, err)
		}
	}
	if err := l.recover(visit); err != nil {
		return nil, err
	}
	l.durable = l.next
	if !opts.ReadOnly {
		if err := l.openActive(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// recover enumerates segments, validates them in one pass that also feeds
// visit, truncates a torn tail (unless read-only), and computes first/next
// offsets.
func (l *Log) recover(visit func([]Record) error) error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		if os.IsNotExist(err) && l.opts.ReadOnly {
			return nil // empty log
		}
		return fmt.Errorf("wal: scan %s: %w", l.dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			continue // not a segment file
		}
		info, err := e.Info()
		if err != nil {
			return fmt.Errorf("wal: stat %s: %w", name, err)
		}
		l.segs = append(l.segs, segment{
			base:  base,
			path:  filepath.Join(l.dir, name),
			size:  info.Size(),
			mtime: info.ModTime(),
		})
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].base < l.segs[j].base })
	fr := frameReader{maxRecordBytes: l.opts.MaxRecordBytes}
	for i := range l.segs {
		s := &l.segs[i]
		records, validSize, err := fr.read(s.path, s.size, visit)
		// A torn frame is tolerated only in the newest segment; elsewhere
		// it is interior corruption.
		if err == errTorn && i < len(l.segs)-1 {
			return corruptAt(s.path, validSize, err)
		}
		if err != nil && err != errTorn {
			return err
		}
		if validSize < s.size {
			// Torn tail of the newest segment: a crash interrupted the last
			// append. Drop the partial frame so the log ends on a record
			// boundary.
			l.torn += s.size - validSize
			if !l.opts.ReadOnly {
				if err := os.Truncate(s.path, validSize); err != nil {
					return fmt.Errorf("wal: truncate torn tail of %s: %w", s.path, err)
				}
			}
			s.size = validSize
		}
		s.records = records
		if i == 0 {
			l.first = s.base
		}
		l.next = s.base + s.records
	}
	return nil
}

// openActive positions the writer at the newest segment, starting a fresh
// one when the log is empty or the newest is already over the size limit.
func (l *Log) openActive() error {
	if len(l.segs) == 0 || l.segs[len(l.segs)-1].size >= l.opts.SegmentBytes {
		return l.rotateLocked()
	}
	s := &l.segs[len(l.segs)-1]
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen active segment: %w", err)
	}
	l.active = f
	return nil
}

// rotateLocked syncs and closes the active segment and starts a new one
// based at the next offset, then applies retention. Callers hold l.syncMu
// and l.mu (or are inside Open, before the log is shared).
func (l *Log) rotateLocked() error {
	if l.active != nil {
		if err := l.syncActiveLocked(); err != nil {
			return err
		}
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("wal: close on rotate: %w", err)
		}
		l.segs[len(l.segs)-1].mtime = time.Now()
	}
	path := filepath.Join(l.dir, fmt.Sprintf("%020d%s", l.next, segSuffix))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.active = f
	l.segs = append(l.segs, segment{base: l.next, path: path, mtime: time.Now()})
	l.applyRetentionLocked()
	return nil
}

// applyRetentionLocked deletes the oldest closed segments that exceed the
// retention bounds. The active segment is never deleted, so at least the
// newest data always survives.
func (l *Log) applyRetentionLocked() {
	ret := l.opts.Retention
	if ret.MaxSegments <= 0 && ret.MaxBytes <= 0 && ret.MaxAge <= 0 {
		return
	}
	total := int64(0)
	for _, s := range l.segs {
		total += s.size
	}
	for len(l.segs) > 1 {
		drop := false
		oldest := l.segs[0]
		if ret.MaxSegments > 0 && len(l.segs) > ret.MaxSegments {
			drop = true
		}
		if ret.MaxBytes > 0 && total > ret.MaxBytes {
			drop = true
		}
		if ret.MaxAge > 0 && time.Since(oldest.mtime) > ret.MaxAge {
			drop = true
		}
		if !drop {
			return
		}
		_ = os.Remove(oldest.path) // retention is best-effort
		total -= oldest.size
		l.segs = l.segs[1:]
		l.first = l.segs[0].base
	}
}

// maxKeptBuf bounds the frame buffer a log keeps between batches; a larger
// one (a catch-up chunk with payloads) is let go after its write.
const maxKeptBuf = 1 << 20

// WriteBatch appends records as one batch without waiting for stable
// storage, whatever the policy: the frames are handed to the OS with one
// write and the offset of the first is returned (subsequent records take
// consecutive offsets). A later Sync, rotation or Close makes them durable.
func (l *Log) WriteBatch(recs []Record) (first uint64, err error) {
	l.mu.Lock()
	first, full, err := l.writeLocked(recs)
	l.mu.Unlock()
	if err != nil || !full {
		return first, err
	}
	if err := l.rotateFull(); err != nil {
		return 0, err
	}
	return first, nil
}

// writeLocked is WriteBatch under l.mu; full reports that the active segment
// has reached its size threshold.
func (l *Log) writeLocked(recs []Record) (first uint64, full bool, err error) {
	if l.closed {
		return 0, false, fmt.Errorf("wal: %s: log closed", l.dir)
	}
	if l.opts.ReadOnly {
		return 0, false, fmt.Errorf("wal: %s: log is read-only", l.dir)
	}
	if l.err != nil {
		return 0, false, l.err
	}
	if len(recs) == 0 {
		return l.next, false, nil
	}
	buf := l.buf[:0]
	for _, r := range recs {
		if fs := frameSize(r); fs-recordHeaderSize > int64(l.opts.MaxRecordBytes) {
			return 0, false, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes %d", fs, l.opts.MaxRecordBytes)
		}
		buf = appendFrame(buf, r)
	}
	if l.buf = buf[:0]; cap(buf) > maxKeptBuf {
		l.buf = nil
	}
	if _, err := l.active.Write(buf); err != nil {
		// A short write leaves part of a frame in the file; anything written
		// after it would sit behind a torn record.
		l.err = fmt.Errorf("wal: %s: append: %w", l.dir, err)
		return 0, false, l.err
	}
	first = l.next
	l.next += uint64(len(recs))
	s := &l.segs[len(l.segs)-1]
	s.records += uint64(len(recs))
	s.size += int64(len(buf))
	s.mtime = time.Now()
	return first, s.size >= l.opts.SegmentBytes, nil
}

// rotateFull rotates the active segment if it is (still) over the size
// threshold, waiting out an fsync in flight on it.
func (l *Log) rotateFull() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.segs[len(l.segs)-1].size < l.opts.SegmentBytes {
		return nil // closed, or rotated by a concurrent append, meanwhile
	}
	if err := l.rotateLocked(); err != nil && l.err == nil {
		l.err = err // no active segment is left to append to
	}
	return l.err
}

// AppendBatch appends records as one batch, returning the offset assigned to
// the first record (subsequent records take consecutive offsets). It returns
// once the batch is as durable as the configured sync policy makes it.
func (l *Log) AppendBatch(recs []Record) (first uint64, err error) {
	first, err = l.WriteBatch(recs)
	if err != nil || len(recs) == 0 {
		return first, err
	}
	switch l.opts.Sync {
	case SyncBatch:
		err = l.sync(0)
	case SyncInterval:
		err = l.sync(l.opts.SyncEvery)
	}
	if err != nil {
		return 0, err
	}
	return first, nil
}

// TruncateTo discards every record with offset >= n, so the next appended
// record receives offset n. Segments based entirely above the cut are
// deleted, the segment containing the cut is truncated at the exact frame
// boundary, and the log is repositioned for appends before TruncateTo
// returns. n >= NextOffset is a no-op; truncating below the retention
// horizon or on a read-only log is an error. The replication layer uses
// this to drop a rejoining replica's unacknowledged divergent tail before
// catch-up.
func (l *Log) TruncateTo(n uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: %s: log closed", l.dir)
	}
	if l.opts.ReadOnly {
		return fmt.Errorf("wal: %s: log is read-only", l.dir)
	}
	if l.err != nil {
		return l.err
	}
	if n >= l.next {
		return nil
	}
	if n < l.first {
		return fmt.Errorf("wal: truncate to %d below retention horizon %d", n, l.first)
	}
	// The cut lands in (or removes) the active segment: settle it on disk
	// and close it, then do the surgery, then reopen for appends.
	if l.active != nil {
		if err := l.syncActiveLocked(); err != nil {
			return err
		}
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("wal: close before truncate: %w", err)
		}
		l.active = nil
	}
	for len(l.segs) > 0 {
		s := &l.segs[len(l.segs)-1]
		if s.base >= n {
			if err := os.Remove(s.path); err != nil {
				return fmt.Errorf("wal: remove truncated segment: %w", err)
			}
			l.segs = l.segs[:len(l.segs)-1]
			continue
		}
		if s.base+s.records > n {
			size, err := l.frameBoundary(s, n-s.base)
			if err != nil {
				return err
			}
			if err := os.Truncate(s.path, size); err != nil {
				return fmt.Errorf("wal: truncate segment: %w", err)
			}
			s.records = n - s.base
			s.size = size
		}
		break
	}
	l.next, l.durable = n, n
	if len(l.segs) == 0 {
		l.first = n
	}
	return l.openActive()
}

// frameBoundary returns the byte length of s's first k frames.
func (l *Log) frameBoundary(s *segment, k uint64) (int64, error) {
	fr := frameReader{maxRecordBytes: l.opts.MaxRecordBytes}
	var size int64
	_, valid, err := fr.read(s.path, s.size, func(recs []Record) error {
		for _, r := range recs {
			if k == 0 {
				return errStop
			}
			size += frameSize(r)
			k--
		}
		return nil
	})
	if err != nil && err != errStop {
		return 0, corruptAt(s.path, valid, err)
	}
	if k > 0 {
		return 0, corruptAt(s.path, valid, io.ErrUnexpectedEOF)
	}
	return size, nil
}

// errStop is how a frameReader visitor ends the read early.
var errStop = errors.New("wal: stop")

// syncActiveLocked fsyncs the active segment with l.syncMu and l.mu held:
// the fsync of a rotation, a truncation or Close, which must not race a
// write. A failure poisons the log.
func (l *Log) syncActiveLocked() error {
	if l.err != nil {
		return l.err
	}
	return l.syncedLocked(l.next, fsync(l.active))
}

// syncedLocked records the outcome of an fsync that covered every record
// below upTo: the durable watermark moves there, or the log is poisoned.
func (l *Log) syncedLocked(upTo uint64, err error) error {
	if err != nil {
		l.err = fmt.Errorf("wal: %s: fsync: %w", l.dir, err)
		return l.err
	}
	l.durable, l.lastSync = upTo, time.Now()
	return nil
}

// Sync forces all appended records to stable storage regardless of policy.
// The fsync runs without l.mu, so batches written meanwhile are not held up
// (they are covered by the next Sync, or by this one if they beat it to the
// disk); when everything written is durable already there is nothing to do.
func (l *Log) Sync() error { return l.sync(0) }

// sync is Sync, skipped when minAge is positive and the last fsync is more
// recent than that.
func (l *Log) sync(minAge time.Duration) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.err != nil || l.closed || l.active == nil || l.durable == l.next ||
		(minAge > 0 && time.Since(l.lastSync) < minAge) {
		err := l.err
		l.mu.Unlock()
		return err
	}
	f, target := l.active, l.next
	l.mu.Unlock()
	err := fsync(f)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncedLocked(target, err)
}

// Replay calls fn for every record with offset >= from, in offset order,
// until fn returns false. Offsets below the retention horizon are skipped
// (replay starts at FirstOffset). Replay sees every record appended before
// the call, including unsynced ones. The record's bytes alias the read
// buffer and are valid only during the call.
func (l *Log) Replay(from uint64, fn func(off uint64, rec Record) bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	fr := frameReader{maxRecordBytes: l.opts.MaxRecordBytes}
	for _, s := range l.segs {
		if s.base+s.records <= from {
			continue
		}
		off := s.base
		// s.size is the validated prefix length from recovery, so a torn
		// tail left on disk by a read-only open is never read here.
		_, read, err := fr.read(s.path, s.size, func(recs []Record) error {
			for _, rec := range recs {
				if off >= from && !fn(off, rec) {
					return errStop
				}
				off++
			}
			return nil
		})
		if err == errStop {
			return nil
		}
		if err == errTorn {
			return corruptAt(s.path, read, err)
		}
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
	}
	return nil
}

// Close fsyncs outstanding appends and closes the active segment. Further
// appends fail. A poisoned log reports what poisoned it.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.active == nil {
		return l.err
	}
	if err := l.syncActiveLocked(); err != nil {
		_ = l.active.Close() // the sync failure is the error that matters
		return err
	}
	return l.active.Close()
}

// NextOffset returns the offset the next appended record would receive —
// equivalently, the number of records ever appended (before retention).
func (l *Log) NextOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}
