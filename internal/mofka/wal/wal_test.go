package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
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
	return Record{
		Meta: []byte(fmt.Sprintf(`{"key":"task-%04d","at":%d.5}`, i, i)),
		Data: []byte(fmt.Sprintf("payload-%d", i)),
	}
}

func collect(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var out []Record
	start := uint64(0)
	err := l.Replay(from, func(off uint64, r Record) bool {
		if len(out) == 0 {
			start = off // the horizon may be past `from` when retention dropped segments
		}
		if off != start+uint64(len(out)) {
			t.Fatalf("offset %d out of order (want %d)", off, start+uint64(len(out)))
		}
		out = append(out, Record{
			Meta: append([]byte(nil), r.Meta...),
			Data: append([]byte(nil), r.Data...),
		})
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
		if !bytes.Equal(r.Meta, want.Meta) || !bytes.Equal(r.Data, want.Data) {
			t.Fatalf("record %d = %q/%q, want %q/%q", i, r.Meta, r.Data, want.Meta, want.Data)
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

func TestNilDataAndEmptyMetaRoundTrip(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()
	if _, err := l.AppendBatch([]Record{{Meta: []byte(`{}`)}, {Data: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 0)
	if len(got) != 2 {
		t.Fatalf("got %d records", len(got))
	}
	if got[0].Data != nil {
		t.Fatalf("nil data came back as %q", got[0].Data)
	}
	if len(got[1].Meta) != 0 || string(got[1].Data) != "x" {
		t.Fatalf("empty-meta record = %q/%q", got[1].Meta, got[1].Data)
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
	l := mustOpen(t, dir, Options{SegmentBytes: 256})
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
	l := mustOpen(t, dir, Options{SegmentBytes: 512})
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

func TestRetentionMaxSegments(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 512, Retention: Retention{MaxSegments: 3}})
	defer l.Close()
	for i := 0; i < 200; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Segments(); n > 3 {
		t.Fatalf("segments = %d, want <= 3", n)
	}
	first := l.FirstOffset()
	if first == 0 {
		t.Fatal("retention never advanced FirstOffset")
	}
	got := collect(t, l, 0) // from 0 silently starts at the horizon
	if uint64(len(got)) != l.NextOffset()-first {
		t.Fatalf("replayed %d, want %d", len(got), l.NextOffset()-first)
	}
	if !bytes.Equal(got[0].Meta, rec(int(first)).Meta) {
		t.Fatalf("replay horizon starts at %q, want record %d", got[0].Meta, first)
	}
}

func TestRetentionMaxAge(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 256, Retention: Retention{MaxAge: time.Nanosecond}})
	defer l.Close()
	for i := 0; i < 60; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Microsecond)
	}
	if n := l.Segments(); n > 2 {
		t.Fatalf("age retention kept %d segments", n)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncBatch, SyncInterval, SyncNever} {
		dir := t.TempDir()
		l := mustOpen(t, dir, Options{Sync: p, SyncEvery: time.Millisecond})
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
	l := mustOpen(t, t.TempDir(), Options{MaxRecordBytes: 64})
	defer l.Close()
	if _, err := l.Append(Record{Meta: []byte("{}"), Data: make([]byte, 128)}); err == nil {
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
	l := mustOpen(t, t.TempDir(), Options{Sync: SyncNever, SegmentBytes: 4096})
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
	l := mustOpen(t, dir, Options{SegmentBytes: 256})
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
	off, err := l.Append(Record{Meta: []byte(`{"key":"new"}`), Data: []byte("new")})
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
	r := mustOpen(t, dir, Options{SegmentBytes: 256})
	defer r.Close()
	if got := r.NextOffset(); got != 18 {
		t.Fatalf("reopened NextOffset = %d, want 18", got)
	}
	recovered := collect(t, r, 0)
	if len(recovered) != 18 {
		t.Fatalf("reopened replay %d records, want 18", len(recovered))
	}
	if !bytes.Equal(recovered[17].Data, []byte("new")) {
		t.Fatalf("post-truncate append lost across reopen")
	}
}

func TestTruncateToWholeLogAndReadOnly(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 128})
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
