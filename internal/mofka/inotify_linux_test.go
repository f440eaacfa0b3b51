package mofka

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"unsafe"

	"taskprov/internal/mofka/wal"
)

// fileEvents watches dirs with inotify and returns a function that reports,
// per file whose name ends in suffix, how many events of kind count have been
// seen since. inotify merges an event into an identical one queued just
// before it, so between watches two events on one file: a second kind that
// always falls between two of the counted kind keeps them apart.
func fileEvents(t *testing.T, dirs []string, count, between uint32, suffix string) func() map[string]int {
	t.Helper()
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		t.Skipf("inotify unavailable: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Close(fd) })
	watched := make(map[int32]string)
	for _, d := range dirs {
		wd, err := syscall.InotifyAddWatch(fd, d, count|between)
		if err != nil {
			t.Skipf("inotify watch: %v", err)
		}
		watched[int32(wd)] = d
	}
	return func() map[string]int {
		opens := make(map[string]int)
		buf := make([]byte, 1<<16)
		for {
			n, err := syscall.Read(fd, buf)
			if n <= 0 || err != nil {
				return opens
			}
			for off := 0; off+syscall.SizeofInotifyEvent <= n; {
				ev := (*syscall.InotifyEvent)(unsafe.Pointer(&buf[off]))
				name := strings.TrimRight(string(buf[off+syscall.SizeofInotifyEvent:off+syscall.SizeofInotifyEvent+int(ev.Len)]), "\x00")
				if ev.Mask&count != 0 && strings.HasSuffix(name, suffix) {
					opens[filepath.Join(watched[ev.Wd], name)]++
				}
				off += syscall.SizeofInotifyEvent + int(ev.Len)
			}
		}
	}
}

// TestPostMortemOpenReadsEachSegmentOnce: a post-mortem open validates and
// publishes in one pass, so every segment file of a multi-segment,
// multi-partition data dir is opened exactly once.
func TestPostMortemOpenReadsEachSegmentOnce(t *testing.T) {
	dir := t.TempDir()
	b, err := NewDurableBroker(Options{DataDir: dir, WAL: wal.Options{SegmentBytes: 512, Sync: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := b.CreateTopic(TopicConfig{Name: "t", Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := tp.NewProducer(ProducerOptions{BatchSize: 4})
	for i := 0; i < 120; i++ {
		var data [8]byte
		binary.LittleEndian.PutUint64(data[:], uint64(i))
		if err := p.Push(Metadata{"i": i, "pad": "xxxxxxxxxxxxxxxxxxxxxxxx"}, data[:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "topics", "t", "p*", "*.seg"))
	if err != nil || len(segs) < 9 {
		t.Fatalf("want a multi-segment log in every partition, have %d segments (%v)", len(segs), err)
	}

	partDirs, err := filepath.Glob(filepath.Join(dir, "topics", "t", "p*"))
	if err != nil {
		t.Fatal(err)
	}
	opens := fileEvents(t, partDirs, syscall.IN_OPEN, syscall.IN_CLOSE_NOWRITE, ".seg")
	pm, err := OpenPostMortem(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer pm.Close()
	if got := len(drainAll(t, pm, "t")); got != 120 {
		t.Fatalf("post-mortem open recovered %d of 120 events", got)
	}
	counts := opens()
	for _, seg := range segs {
		if counts[seg] != 1 {
			st, _ := os.Stat(seg)
			t.Errorf("%s (%d bytes) opened %d times, want once", seg, st.Size(), counts[seg])
		}
	}
}

// TestCommitBatchRewritesCursorStoreOnce: a batch that spans three partitions
// is one atomic install of cursors.json, not three, and the file holds what
// three single commits would have left.
func TestCommitBatchRewritesCursorStoreOnce(t *testing.T) {
	dir := t.TempDir()
	b := newDurable(t, dir)
	defer b.Close()
	tp, err := b.CreateTopic(TopicConfig{Name: "t", Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := tp.NewProducer(ProducerOptions{})
	for i := 0; i < 12; i++ {
		if err := p.Push(Metadata{"i": i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	c, err := tp.NewConsumer(ConsumerOptions{Name: "mon"})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := c.PullBatch(12)
	if err != nil || len(evs) != 12 {
		t.Fatalf("pulled %d events, %v", len(evs), err)
	}
	installs := fileEvents(t, []string{dir}, syscall.IN_MOVED_TO, syscall.IN_CREATE, "cursors.json")
	if err := c.CommitBatch(evs); err != nil {
		t.Fatal(err)
	}
	if n := installs()[filepath.Join(dir, "cursors.json")]; n != 1 {
		t.Fatalf("CommitBatch over three partitions installed cursors.json %d times, want once", n)
	}
	got, err := os.ReadFile(filepath.Join(dir, "cursors.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"mon/t/p0000":4,"mon/t/p0001":4,"mon/t/p0002":4}`; string(got) != want {
		t.Fatalf("cursors.json holds %s, want %s", got, want)
	}
}
