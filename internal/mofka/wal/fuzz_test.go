package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzSegName is the single segment the fuzzer plants: base offset 0, the
// name Open's recovery scan expects.
const fuzzSegName = "00000000000000000000.seg"

// validStream frames n records into one byte stream, as a crashed writer
// would have left them on disk.
func validStream(n int) []byte {
	var buf []byte
	for i := 0; i < n; i++ {
		buf = append(buf, appendFrame(nil,
			Record{Meta: []byte(fmt.Sprintf(`{"i":%d,"pad":"%s"}`, i, strings.Repeat("x", 16+i)))})...)
	}
	return buf
}

// FuzzWALRecover plants arbitrary bytes as a log's newest segment and opens
// it: whatever a crash (or bit rot) left behind, recovery must not panic,
// must keep exactly the valid frame prefix — truncating the rest as a torn
// tail — and must leave a log that replays cleanly and accepts appends.
func FuzzWALRecover(f *testing.F) {
	f.Add([]byte{})
	f.Add(validStream(3))
	f.Add(validStream(2)[:10])                           // torn mid-header
	f.Add(append(validStream(1), 0xde, 0xad, 0xbe))      // garbage tail
	f.Add(append([]byte{0xff, 0xff}, validStream(1)...)) // garbage head
	corrupt := validStream(2)
	corrupt[len(corrupt)/2] ^= 0x40 // flipped bit inside a payload
	f.Add(corrupt)
	huge := validStream(1)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f // absurd length field
	f.Add(huge)
	f.Add(append(validStream(2), frameWithTail([]byte(`{"i":2}`), []byte("data"))...)) // metadata short of its payload

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, fuzzSegName)
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}

		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("recovery failed on %d fuzzed bytes: %v", len(data), err)
		}
		defer l.Close()

		// The survivor is the longest valid frame prefix of the input; the
		// rest was truncated and accounted as torn.
		kept, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(kept))+l.TornBytes() != int64(len(data)) {
			t.Fatalf("torn accounting: kept %d + torn %d != input %d",
				len(kept), l.TornBytes(), len(data))
		}
		if !bytes.Equal(kept, data[:len(kept)]) {
			t.Fatalf("recovered segment is not a prefix of the input")
		}

		// Replay must deliver exactly NextOffset records, in offset order,
		// each re-framing to the bytes on disk.
		var n uint64
		var reframed []byte
		if err := l.Replay(0, func(off uint64, rec Record) bool {
			if off != n {
				t.Fatalf("replay offset %d, want %d", off, n)
			}
			n++
			reframed = append(reframed, appendFrame(nil, rec)...)
			return true
		}); err != nil {
			t.Fatalf("replay after recovery: %v", err)
		}
		if n != l.NextOffset() {
			t.Fatalf("replayed %d records, NextOffset %d", n, l.NextOffset())
		}
		if !bytes.Equal(reframed, kept) {
			t.Fatalf("replayed records re-frame to %d bytes, disk holds %d",
				len(reframed), len(kept))
		}

		// The recovered log must accept appends and survive a clean reopen
		// with nothing further torn.
		if _, err := l.Append(Record{Meta: []byte(`{"post":"recovery"}`)}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		if l2.TornBytes() != 0 {
			t.Fatalf("clean reopen reports %d torn bytes", l2.TornBytes())
		}
		if got := l2.NextOffset(); got != n+1 {
			t.Fatalf("reopen NextOffset %d, want %d", got, n+1)
		}
	})
}

// realSegment is the segment a log leaves after appending n records in
// batches of three: the bytes a writer frames, not a test's own framing. The
// records rise and fall in size, so that a frame which fits a grown window
// straddles its end too.
func realSegment(f *testing.F, n int) []byte {
	dir := f.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < n; i += 3 {
		var batch []Record
		for j := i; j < min(i+3, n); j++ {
			batch = append(batch, Record{Meta: []byte(fmt.Sprintf(`{"i":%d,"pad":"%s"}`, j, strings.Repeat("x", j*37%50)))})
		}
		if _, err := l.AppendBatch(batch); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, fuzzSegName))
	if err != nil {
		f.Fatal(err)
	}
	return seg
}

// readOutcome is what a read-only open of the log in a directory tells: its
// records re-framed, in offset order, how many there are and how many bytes
// of torn tail it skipped; or the error that failed it.
type readOutcome struct {
	frames  []byte
	records uint64
	torn    int64
	err     error
}

// readLog opens the log in dir read-only. With keep, the open's visitor
// collects the records it keeps; without, the open validates through the
// window and a Replay, through the window too, collects them.
func readLog(t *testing.T, dir string, keep bool) readOutcome {
	t.Helper()
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var o readOutcome
	collect := func(r Record) { o.frames = append(o.frames, appendFrame(nil, r)...) }
	var visit func([]Record) error
	if keep {
		visit = func(recs []Record) error {
			for _, r := range recs {
				collect(r)
			}
			return nil
		}
	}
	l, err := OpenReplay(segs, Options{ReadOnly: true}, visit)
	if err != nil {
		o.err = err
		return o
	}
	defer l.Close()
	if !keep {
		if err := l.Replay(0, func(_ uint64, r Record) bool { collect(r); return true }); err != nil {
			t.Fatalf("replay through the window: %v", err)
		}
	}
	o.records, o.torn = l.NextOffset(), l.TornBytes()
	return o
}

// FuzzSegmentWindow holds the reader that keeps nothing, which reads through
// a window it slides and grows, to the one that keeps each segment whole
// (OpenReplay with a visitor): for arbitrary segment bytes they must agree
// on every record's bytes, on the valid prefix and on torn against clean.
// The window is shrunk to a few bytes so that headers and records straddle
// every boundary, and it grows only for a frame larger than itself. With
// older set the bytes are planted as an older segment, followed by a clean
// one, where a torn frame is interior corruption that both must report at
// the same byte.
func FuzzSegmentWindow(f *testing.F) {
	real := realSegment(f, 14)
	flipped := bytes.Clone(real)
	flipped[len(flipped)/3] ^= 0x08
	absurd := bytes.Clone(real)
	absurd[2] = 0x7f // the first frame claims about 8 MiB
	for _, seg := range [][]byte{real, real[:len(real)-7], flipped, absurd, real[:5], {}} {
		f.Add(seg, uint8(0), false)
		f.Add(seg, uint8(13), false)
		f.Add(seg, uint8(200), true)
	}

	f.Fuzz(func(t *testing.T, data []byte, window uint8, older bool) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fuzzSegName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var newest []byte
		if older {
			newest = validStream(2)
			if err := os.WriteFile(filepath.Join(dir, "00000000000000100000.seg"), newest, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		kept := readLog(t, dir, true)
		restore := SetReadWindow(int64(window%32) + 1)
		windowed := readLog(t, dir, false)
		restore()

		if fmt.Sprint(windowed.err) != fmt.Sprint(kept.err) {
			t.Fatalf("the windowed open says %v, the keeping one %v", windowed.err, kept.err)
		}
		if kept.err != nil {
			if !older || !errors.Is(kept.err, ErrCorrupt) {
				t.Fatalf("open failed: %v", kept.err)
			}
			return
		}
		if windowed.records != kept.records || windowed.torn != kept.torn {
			t.Fatalf("the windowed open holds %d records and skipped %d torn bytes, the keeping one %d and %d",
				windowed.records, windowed.torn, kept.records, kept.torn)
		}
		if !bytes.Equal(windowed.frames, kept.frames) {
			t.Fatalf("the windowed reader's records re-frame to %d bytes, the keeping one's to %d",
				len(windowed.frames), len(kept.frames))
		}
		// What both kept is the input's valid prefix, and the rest was torn.
		if want := append(data[:len(data)-int(kept.torn):len(data)-int(kept.torn)], newest...); !bytes.Equal(kept.frames, want) {
			t.Fatalf("the records re-frame to %d bytes, not the %d-byte valid prefix", len(kept.frames), len(want))
		}
	})
}
