package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func rec(i int) Record {
	return Record{Meta: []byte(fmt.Sprintf(`{"key":"task-%04d","at":%d.5,"out":"payload-%d"}`, i, i, i))}
}

func collect(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var out []Record
	err := l.Replay(from, func(off uint64, r Record) bool {
		if off != from+uint64(len(out)) {
			t.Fatalf("offset %d out of order (want %d)", off, from+uint64(len(out)))
		}
		out = append(out, Record{Meta: append([]byte(nil), r.Meta...)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()
	var batch []Record
	for i := 0; i < 100; i++ {
		batch = append(batch, rec(i))
		if len(batch) == 7 {
			if _, err := l.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = nil
		}
	}
	if _, err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 0)
	if len(got) != 100 {
		t.Fatalf("replayed %d records, want 100", len(got))
	}
	for i, r := range got {
		want := rec(i)
		if !bytes.Equal(r.Meta, want.Meta) {
			t.Fatalf("record %d = %q, want %q", i, r.Meta, want.Meta)
		}
	}
	if l.NextOffset() != 100 {
		t.Fatalf("NextOffset = %d", l.NextOffset())
	}
	// Replay from the middle.
	mid := collect(t, l, 40)
	if len(mid) != 60 || !bytes.Equal(mid[0].Meta, rec(40).Meta) {
		t.Fatalf("partial replay got %d records starting %q", len(mid), mid[0].Meta)
	}
}

func TestEmptyMetaRoundTrip(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()
	if _, err := l.AppendBatch([]Record{{Meta: []byte(`{}`)}, {}}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 0)
	if len(got) != 2 {
		t.Fatalf("got %d records", len(got))
	}
	if string(got[0].Meta) != `{}` || len(got[1].Meta) != 0 {
		t.Fatalf("records = %q, %q", got[0].Meta, got[1].Meta)
	}
}

// frameWithTail frames meta followed by tail in one payload: a frame whose
// metadata length is shorter than its payload, as a log that stored a data
// blob after each event's metadata wrote them.
func frameWithTail(meta, tail []byte) []byte {
	payload := binary.LittleEndian.AppendUint32(nil, uint32(len(meta)))
	payload = append(append(payload, meta...), tail...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	return append(frame, payload...)
}

// TestShortMetadataFrameIsTorn: a frame whose metadata does not fill its
// payload is not a record. At the end of the newest segment it is a torn tail,
// truncated away; in an older segment it is ErrCorrupt.
func TestShortMetadataFrameIsTorn(t *testing.T) {
	bad := frameWithTail([]byte(`{"i":2}`), []byte("data"))
	dir := t.TempDir()
	seg := filepath.Join(dir, fuzzSegName)
	if err := os.WriteFile(seg, append(validStream(2), bad...), 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, dir, Options{})
	if l.NextOffset() != 2 || l.TornBytes() != int64(len(bad)) {
		t.Fatalf("tail: NextOffset %d, torn %d bytes, want 2 and %d", l.NextOffset(), l.TornBytes(), len(bad))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(seg); err != nil || st.Size() != int64(len(validStream(2))) {
		t.Fatalf("tail not truncated: %v, %v", st, err)
	}

	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fuzzSegName), append(validStream(2), bad...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%020d.seg", 3)), validStream(1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior: Open = %v, want ErrCorrupt", err)
	}
}

func TestReopenContinuesOffsets(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if l2.NextOffset() != 10 {
		t.Fatalf("reopened NextOffset = %d, want 10", l2.NextOffset())
	}
	off, err := l2.Append(rec(10))
	if err != nil || off != 10 {
		t.Fatalf("append after reopen: off=%d err=%v", off, err)
	}
	if got := collect(t, l2, 0); len(got) != 11 {
		t.Fatalf("replayed %d records", len(got))
	}
}

// newestSegment returns the path of the segment with the highest base.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	return matches[len(matches)-1]
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	for i := 0; i < 20; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill -9 mid-append: chop the last record in half.
	seg := newestSegment(t, dir)
	info, _ := os.Stat(seg)
	if err := os.Truncate(seg, info.Size()-9); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if l2.NextOffset() != 19 {
		t.Fatalf("NextOffset after torn tail = %d, want 19", l2.NextOffset())
	}
	if l2.TornBytes() == 0 {
		t.Fatal("TornBytes = 0, want > 0")
	}
	got := collect(t, l2, 0)
	if len(got) != 19 || !bytes.Equal(got[18].Meta, rec(18).Meta) {
		t.Fatalf("replay after truncation: %d records", len(got))
	}
	// The log stays appendable and dense after recovery.
	off, err := l2.Append(rec(19))
	if err != nil || off != 19 {
		t.Fatalf("append after recovery: off=%d err=%v", off, err)
	}
}

func TestCorruptTailCRCDiscarded(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Flip a byte inside the last record's payload.
	seg := newestSegment(t, dir)
	b, _ := os.ReadFile(seg)
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if l2.NextOffset() != 4 {
		t.Fatalf("NextOffset = %d, want 4 (corrupt record dropped)", l2.NextOffset())
	}
}

func TestReadOnlyOpenDoesNotTruncate(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	for i := 0; i < 8; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seg := newestSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = f.Write([]byte("garbage torn tail"))
	_ = f.Close()
	sizeBefore, _ := os.Stat(seg)

	ro := mustOpen(t, dir, Options{ReadOnly: true})
	if ro.NextOffset() != 8 {
		t.Fatalf("read-only NextOffset = %d", ro.NextOffset())
	}
	if got := collect(t, ro, 0); len(got) != 8 {
		t.Fatalf("read-only replay got %d records", len(got))
	}
	if _, err := ro.Append(rec(99)); err == nil {
		t.Fatal("append on read-only log succeeded")
	}
	sizeAfter, _ := os.Stat(seg)
	if sizeAfter.Size() != sizeBefore.Size() {
		t.Fatalf("read-only open mutated the segment: %d -> %d bytes", sizeBefore.Size(), sizeAfter.Size())
	}
}

func TestInteriorCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{segmentBytes: 256})
	for i := 0; i < 50; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if n := len(glob(t, dir)); n < 3 {
		t.Fatalf("expected several segments, got %d", n)
	}
	// Corrupt the FIRST segment (not the tail): that is interior damage a
	// crash cannot cause, and recovery must refuse rather than silently
	// reinterpret offsets.
	first := glob(t, dir)[0]
	b, _ := os.ReadFile(first)
	b[2] ^= 0xFF // clobber the first record's length field
	if err := os.WriteFile(first, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over interior corruption: %v, want ErrCorrupt", err)
	}
}

func glob(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{segmentBytes: 512})
	defer l.Close()
	for i := 0; i < 100; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 4 {
		t.Fatalf("segments = %d, want rotation to have produced several", l.Segments())
	}
	if got := collect(t, l, 0); len(got) != 100 {
		t.Fatalf("replay across segments: %d records", len(got))
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncBatch, SyncInterval, SyncNever} {
		dir := t.TempDir()
		l := mustOpen(t, dir, Options{Sync: p})
		if _, err := l.AppendBatch([]Record{rec(0), rec(1)}); err != nil {
			t.Fatalf("policy %d: %v", p, err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2 := mustOpen(t, dir, Options{})
		if l2.NextOffset() != 2 {
			t.Fatalf("policy %d: NextOffset = %d", p, l2.NextOffset())
		}
		l2.Close()
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"batch": SyncBatch, "": SyncBatch, "interval": SyncInterval, "never": SyncNever, "none": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %d, %v", s, got, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	l.Close()
	if _, err := l.Append(rec(0)); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{maxRecordBytes: 64})
	defer l.Close()
	if _, err := l.Append(Record{Meta: make([]byte, 128)}); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestCursorStore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cursors.json")
	s, err := OpenCursorStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetBatch([]Cursor{{Key: "analysis/task-executions/p0000", Next: 41}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetBatch([]Cursor{{Key: "analysis/task-executions/p0000", Next: 42}, {Key: "analysis/task-executions/p0001", Next: 7}}); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("analysis/task-executions/p0000"); !ok || v != 42 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	// Reopen: cursors survive.
	s2, err := OpenCursorStore(path)
	if err != nil {
		t.Fatal(err)
	}
	all := s2.All()
	if len(all) != 2 || all["analysis/task-executions/p0001"] != 7 {
		t.Fatalf("reloaded cursors = %v", all)
	}
	// No leftover temp files from the atomic writes.
	leftovers, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}

func TestCursorStoreCorruptFileErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cursors.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCursorStore(path); err == nil {
		t.Fatal("corrupt cursor store opened")
	}
}

func TestConcurrentAppendReplay(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{Sync: SyncNever, segmentBytes: 4096})
	defer l.Close()
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				if _, err := l.Append(rec(i)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := collect(t, l, 0); len(got) != 400 {
		t.Fatalf("replayed %d records, want 400", len(got))
	}
}

func TestTruncateTo(t *testing.T) {
	dir := t.TempDir()
	// Small segments so the truncation point and whole-segment removal are
	// both exercised.
	l := mustOpen(t, dir, Options{segmentBytes: 256})
	for i := 0; i < 40; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("want >=3 segments for a meaningful test, have %d", l.Segments())
	}

	if err := l.TruncateTo(100); err != nil {
		t.Fatalf("no-op truncate: %v", err)
	}
	if got := l.NextOffset(); got != 40 {
		t.Fatalf("NextOffset after no-op = %d, want 40", got)
	}

	if err := l.TruncateTo(17); err != nil {
		t.Fatalf("TruncateTo: %v", err)
	}
	if got := l.NextOffset(); got != 17 {
		t.Fatalf("NextOffset = %d, want 17", got)
	}
	got := collect(t, l, 0)
	if len(got) != 17 {
		t.Fatalf("replay returned %d records, want 17", len(got))
	}
	for i, r := range got {
		if !bytes.Equal(r.Meta, rec(i).Meta) {
			t.Fatalf("record %d corrupted after truncate", i)
		}
	}

	// Appends continue at the cut with dense offsets.
	off, err := l.Append(Record{Meta: []byte(`{"key":"new"}`)})
	if err != nil {
		t.Fatal(err)
	}
	if off != 17 {
		t.Fatalf("post-truncate append got offset %d, want 17", off)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The truncation is durable: a reopen sees the clamped log, not the tail.
	r := mustOpen(t, dir, Options{segmentBytes: 256})
	defer r.Close()
	if got := r.NextOffset(); got != 18 {
		t.Fatalf("reopened NextOffset = %d, want 18", got)
	}
	recovered := collect(t, r, 0)
	if len(recovered) != 18 {
		t.Fatalf("reopened replay %d records, want 18", len(recovered))
	}
	if !bytes.Equal(recovered[17].Meta, []byte(`{"key":"new"}`)) {
		t.Fatalf("post-truncate append lost across reopen")
	}
}

func TestTruncateToWholeLogAndReadOnly(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{segmentBytes: 128})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateTo(0); err != nil {
		t.Fatalf("truncate to 0: %v", err)
	}
	if got := l.NextOffset(); got != 0 {
		t.Fatalf("NextOffset = %d, want 0", got)
	}
	if len(collect(t, l, 0)) != 0 {
		t.Fatal("records survived a truncate-to-zero")
	}
	if _, err := l.Append(rec(0)); err != nil {
		t.Fatalf("append after full truncate: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	ro := mustOpen(t, dir, Options{ReadOnly: true})
	defer ro.Close()
	if err := ro.TruncateTo(0); err == nil {
		t.Fatal("read-only TruncateTo succeeded")
	}
}

// TestReplayedRecordsOutliveTheOpen: the records an OpenReplay visitor keeps —
// not copies, the Record values it was handed — still hold the segments'
// bytes once OpenReplay has returned and once the log is closed; on a
// writable log, also after further appends that rotate the active segment.
func TestReplayedRecordsOutliveTheOpen(t *testing.T) {
	dir := t.TempDir()
	const n = 60
	l := mustOpen(t, dir, Options{segmentBytes: 512})
	for i := 0; i < n; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(stage string, kept []Record) {
		t.Helper()
		if len(kept) != n {
			t.Fatalf("%s: kept %d records, want %d", stage, len(kept), n)
		}
		for i, r := range kept {
			if want := rec(i); !bytes.Equal(r.Meta, want.Meta) {
				t.Fatalf("%s: kept record %d reads %q, want %q", stage, i, r.Meta, want.Meta)
			}
		}
	}
	for _, readOnly := range []bool{true, false} {
		var kept []Record
		segs, err := ListSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		l, err := OpenReplay(segs, Options{segmentBytes: 512, ReadOnly: readOnly}, func(recs []Record) error {
			kept = append(kept, recs...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if readOnly {
			check("read-only, opened", kept)
		} else {
			check("writable, opened", kept)
			segs := l.Segments()
			for i := n; i < 2*n; i++ {
				if _, err := l.Append(rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			if l.Segments() <= segs {
				t.Fatalf("%d segments after the appends, %d before: want a rotation", l.Segments(), segs)
			}
			check("writable, appended to", kept)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("read-only %v, closed", readOnly), kept)
	}
}
