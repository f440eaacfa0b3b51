package mofka

import (
	"fmt"
	"io/fs"
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
// multi-partition data dir is opened exactly once. So is every segment of
// two directories holding replicas of the same partitions, one of them
// lagging in a partition and torn at the tail of another, when
// OpenPostMortemReplicas merges them: the replica it publishes is read once,
// into the view, and the other once, through the window.
func TestPostMortemOpenReadsEachSegmentOnce(t *testing.T) {
	dir := t.TempDir()
	b, err := NewDurableBroker(Options{DataDir: dir, WAL: wal.Options{Sync: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := b.CreateTopic(TopicConfig{Name: "t", Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := tp.NewProducer(ProducerOptions{BatchSize: 4})
	for i := 0; i < 120; i++ {
		if err := p.Push(Metadata{"i": i, "pad": "xxxxxxxxxxxxxxxxxxxxxxxx", "out": fmt.Sprintf("%08x", i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	resegment(t, dir, 512)

	t.Run("standalone", func(t *testing.T) {
		readsEachSegmentOnce(t, []string{dir}, 120, func() (*Broker, error) { return OpenPostMortem(dir) })
	})
	t.Run("replicas", func(t *testing.T) {
		replica := t.TempDir()
		copyTree(t, dir, replica)
		lagging := segmentsIn(t, filepath.Join(replica, "topics", "t", "p0001"))
		if err := os.Remove(lagging[len(lagging)-1]); err != nil {
			t.Fatal(err)
		}
		torn := segmentsIn(t, filepath.Join(dir, "topics", "t", "p0002"))
		f, err := os.OpenFile(torn[len(torn)-1], os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x30, 0, 0, 0, 0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		dirs := []string{dir, replica}
		readsEachSegmentOnce(t, dirs, 120, func() (*Broker, error) { return OpenPostMortemReplicas(dirs) })
	})
}

// readsEachSegmentOnce opens the data dirs with open and checks that the view
// holds events events of topic t and that every segment of the dirs was
// opened once.
func readsEachSegmentOnce(t *testing.T, dataDirs []string, events int, open func() (*Broker, error)) {
	t.Helper()
	var segs, partDirs []string
	for _, dir := range dataDirs {
		parts, err := filepath.Glob(filepath.Join(dir, "topics", "t", "p*"))
		if err != nil {
			t.Fatal(err)
		}
		partDirs = append(partDirs, parts...)
		for _, part := range parts {
			segs = append(segs, segmentsIn(t, part)...)
		}
	}
	if len(segs) < 9*len(dataDirs)-1 {
		t.Fatalf("want a multi-segment log in every partition, have %d segments", len(segs))
	}
	opens := fileEvents(t, partDirs, syscall.IN_OPEN, syscall.IN_CLOSE_NOWRITE, ".seg")
	pm, err := open()
	if err != nil {
		t.Fatal(err)
	}
	defer pm.Close()
	if got := len(drainAll(t, pm, "t")); got != events {
		t.Fatalf("post-mortem open recovered %d of %d events", got, events)
	}
	counts := opens()
	for _, seg := range segs {
		if counts[seg] != 1 {
			st, _ := os.Stat(seg)
			t.Errorf("%s (%d bytes) opened %d times, want once", seg, st.Size(), counts[seg])
		}
	}
}

// segmentsIn lists a partition directory's segment files.
func segmentsIn(t *testing.T, partDir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(partDir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// copyTree copies the files under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommitBatchRewritesCursorStoreOnce: committing a topic's cursors over
// three partitions is one atomic install of cursors.json, not three, and the
// file holds what three single commits would have left.
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
	installs := fileEvents(t, []string{dir}, syscall.IN_MOVED_TO, syscall.IN_CREATE, "cursors.json")
	if err := tp.CommitCursors("mon", []uint64{4, 4, 4}); err != nil {
		t.Fatal(err)
	}
	if n := installs()[filepath.Join(dir, "cursors.json")]; n != 1 {
		t.Fatalf("CommitCursors over three partitions installed cursors.json %d times, want once", n)
	}
	got, err := os.ReadFile(filepath.Join(dir, "cursors.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"mon/t/p0000":4,"mon/t/p0001":4,"mon/t/p0002":4}`; string(got) != want {
		t.Fatalf("cursors.json holds %s, want %s", got, want)
	}
}
