package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"taskprov/internal/mofka"
	"taskprov/internal/mofka/wal"
)

// ---- the serial reference ----
//
// What a post-mortem open must serve, worked out the slow, obvious way from
// the bytes on disk and nothing of the code under test: one file at a time,
// one frame at a time, every replica in full.

type refEvent struct{ meta []byte }

var (
	errRefCorrupt = errors.New("reference: interior corruption")
	errRefShape   = errors.New("reference: a topic's partition count differs between directories")
)

// refFrames cuts a segment's bytes into events and reports whether every
// byte belonged to a valid frame.
func refFrames(b []byte) (evs []refEvent, whole bool) {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for len(b) > 0 {
		if len(b) < 8 {
			return evs, false
		}
		n := int(binary.LittleEndian.Uint32(b[0:4]))
		if n < 4 || n > 64<<20 || len(b) < 8+n {
			return evs, false
		}
		payload := b[8 : 8+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
			return evs, false
		}
		if int(binary.LittleEndian.Uint32(payload[0:4])) != n-4 {
			return evs, false // the metadata does not fill the payload
		}
		evs = append(evs, refEvent{meta: payload[4:]})
		b = b[8+n:]
	}
	return evs, true
}

// refFrame frames one event, as the log does.
func refFrame(meta string) []byte {
	payload := binary.LittleEndian.AppendUint32(nil, uint32(len(meta)))
	payload = append(payload, meta...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(frame, payload...)
}

// refPartition reads one partition directory: a bad frame in the newest
// segment ends the log there, one in an older segment is corruption. The
// metadata comes back in the form the broker serves it in.
func refPartition(t *testing.T, dir string) ([]refEvent, error) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	var out []refEvent
	for i, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		evs, whole := refFrames(raw)
		if !whole && i < len(segs)-1 {
			return nil, errRefCorrupt
		}
		for _, ev := range evs {
			var compact, stored bytes.Buffer
			if err := json.Compact(&compact, ev.meta); err != nil {
				t.Fatalf("%s holds metadata that is not JSON: %v", seg, err)
			}
			json.HTMLEscape(&stored, compact.Bytes())
			out = append(out, refEvent{meta: stored.Bytes()})
		}
	}
	return out, nil
}

// refView is the content of a merged view: per topic, per partition, the
// events; and the committed cursors by key.
type refView struct {
	topics  map[string][][]refEvent
	cursors map[string]uint64
}

// refOpen reads broker data directories holding replicas of the same topics
// (one directory: a standalone broker's) into the view a post-mortem open
// must give: per partition the longest replica log, the earliest directory
// on a tie; per cursor the maximum. Directories that disagree on a topic's
// partition count have no view.
func refOpen(t *testing.T, dirs []string) (refView, error) {
	t.Helper()
	v := refView{topics: make(map[string][][]refEvent), cursors: make(map[string]uint64)}
	for _, dir := range dirs {
		if raw, err := os.ReadFile(filepath.Join(dir, "cursors.json")); err == nil {
			var m map[string]uint64
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			for k, next := range m {
				if next > v.cursors[k] {
					v.cursors[k] = next
				}
			}
		}
		cfgs, err := filepath.Glob(filepath.Join(dir, "topics", "*", "topic.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range cfgs {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var cfg mofka.TopicConfig
			if err := json.Unmarshal(raw, &cfg); err != nil {
				t.Fatal(err)
			}
			if v.topics[cfg.Name] == nil {
				v.topics[cfg.Name] = make([][]refEvent, cfg.Partitions)
			}
			if len(v.topics[cfg.Name]) != cfg.Partitions {
				return refView{}, errRefShape
			}
			for pi := 0; pi < cfg.Partitions; pi++ {
				evs, err := refPartition(t, filepath.Join(filepath.Dir(path), fmt.Sprintf("p%04d", pi)))
				if err != nil {
					return refView{}, err
				}
				if len(evs) > len(v.topics[cfg.Name][pi]) {
					v.topics[cfg.Name][pi] = evs
				}
			}
		}
	}
	return v, nil
}

// checkView holds an opened broker to the reference: same topics, and per
// partition the same dense offsets and metadata bytes; same
// cursors.
func checkView(t *testing.T, b *mofka.Broker, want refView) {
	t.Helper()
	var names []string
	for name := range want.topics {
		names = append(names, name)
	}
	sort.Strings(names)
	if got := b.Topics(); fmt.Sprint(got) != fmt.Sprint(names) {
		t.Fatalf("opened topics %v, reference %v", got, names)
	}
	for _, name := range names {
		tp, err := b.OpenTopic(name)
		if err != nil {
			t.Fatal(err)
		}
		if tp.Partitions() != len(want.topics[name]) {
			t.Fatalf("%s: %d partitions, reference %d", name, tp.Partitions(), len(want.topics[name]))
		}
		for pi, ref := range want.topics[name] {
			p, err := tp.Partition(pi)
			if err != nil {
				t.Fatal(err)
			}
			evs, err := b.Service().Pull(name, pi, 0, 0)
			if err != nil {
				t.Fatalf("%s[%d]: %v", name, pi, err)
			}
			if uint64(len(evs)) != p.Length() || len(evs) != len(ref) {
				t.Fatalf("%s[%d]: read %d events of %d, reference %d", name, pi, len(evs), p.Length(), len(ref))
			}
			for i, ev := range evs {
				if ev.ID != uint64(i) {
					t.Fatalf("%s[%d]: event %d has offset %d", name, pi, i, ev.ID)
				}
				if !bytes.Equal(ev.Metadata, ref[i].meta) {
					t.Fatalf("%s[%d]/%d: metadata %s, reference %s", name, pi, i, ev.Metadata, ref[i].meta)
				}
			}
		}
	}
	got := make(map[string]uint64)
	for _, c := range b.Cursors() {
		got[fmt.Sprintf("%s/%s/p%04d", c.Consumer, c.Topic, c.Partition)] = c.Next
	}
	if fmt.Sprint(got) != fmt.Sprint(want.cursors) {
		t.Fatalf("cursors %v, reference %v", got, want.cursors)
	}
}

// dirImage is every file under root with its bytes, for the read-only check.
func dirImage(t *testing.T, root string) map[string]string {
	t.Helper()
	img := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			img[path] = "dir"
			return nil
		}
		raw, err := os.ReadFile(path)
		img[path] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// ---- building the directories ----

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// fill appends n events, in batches of 5, to partition pi of topic name,
// whose metadata varies in length when varied is set. Event 3 of every fill
// has metadata the broker stores in a rewritten form.
func fill(t *testing.T, b *mofka.Broker, name string, pi, n int, varied bool) {
	t.Helper()
	tp, err := b.OpenTopic(name)
	must(t, err)
	p, err := tp.Partition(pi)
	must(t, err)
	for i := 0; i < n; i += 5 {
		var metas [][]byte
		for j := i; j < i+5 && j < n; j++ {
			pad := 32
			if varied {
				pad += 1 + j%40
			}
			meta := fmt.Sprintf(`{"i":%d,"p":%d,"pad":"%s"}`, j, pi, strings.Repeat("x", pad))
			if j == 3 {
				meta = fmt.Sprintf(`{ "i": %d, "note": "a<b & c>d" }`, j)
			}
			metas = append(metas, []byte(meta))
		}
		must(t, p.Append(metas, nil))
	}
}

// standaloneDir writes a broker data dir: topic "a" (2 partitions, the second
// with events of varied length) and topic "b" (3 partitions, the last left
// empty), in small
// segments, with two cursors committed.
func standaloneDir(t *testing.T, dir string) {
	t.Helper()
	b, err := mofka.NewDurableBroker(mofka.Options{DataDir: dir, WAL: wal.Options{Sync: wal.SyncNever}})
	must(t, err)
	_, err = b.CreateTopic(mofka.TopicConfig{Name: "a", Partitions: 2})
	must(t, err)
	_, err = b.CreateTopic(mofka.TopicConfig{Name: "b", Partitions: 3})
	must(t, err)
	fill(t, b, "a", 0, 40, false)
	fill(t, b, "a", 1, 33, true)
	fill(t, b, "b", 0, 7, true)
	fill(t, b, "b", 1, 21, false)
	must(t, b.CommitCursor("mon", "a", 0, 17))
	must(t, b.CommitCursor("mon", "b", 1, 4))
	must(t, b.Close())
	resegment(t, dir, 700)
}

// clusterDir writes a 3-broker RF2 cluster dir in small segments; killAt > 0
// kills partition 0's leader after that many pushes (quorum 1, so the
// survivor keeps acknowledging) and never restarts it.
func clusterDir(t *testing.T, dir string, killAt int) {
	t.Helper()
	c, err := New(Config{Brokers: 3, ReplicationFactor: 2, Quorum: 1, DataDir: dir,
		WAL: wal.Options{Sync: wal.SyncNever}})
	must(t, err)
	ct, err := c.EnsureTopic(mofka.TopicConfig{Name: "tasks", Partitions: 3})
	must(t, err)
	p := ct.NewProducer(mofka.ProducerOptions{BatchSize: 4})
	for i := 0; i < 150; i++ {
		if i == killAt && killAt > 0 {
			must(t, p.Flush())
			must(t, c.KillBroker(leaderOf(t, c, "tasks", 0)))
		}
		must(t, p.Push(mofka.Metadata{"i": i, "pad": "xxxxxxxxxxxxxxxxxxxxxxxx", "out": fmt.Sprintf("payload-%d", i)}, nil))
	}
	must(t, p.Close())
	must(t, c.CommitCursor("grp", "tasks", 1, 9))
	must(t, c.Close())
	resegment(t, dir, 700)
}

// resegment cuts every segment under root into segments of about max bytes,
// at frame boundaries and each named by its first offset: the directory a log
// that rotated at max would have left. A log rotates at 64 MiB, and the cases
// need many segments of a few hundred bytes.
func resegment(t *testing.T, root string, max int) {
	t.Helper()
	var segs []string
	must(t, filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".seg") {
			segs = append(segs, path)
		}
		return err
	}))
	for _, path := range segs {
		raw, err := os.ReadFile(path)
		must(t, err)
		base, err := strconv.ParseUint(strings.TrimSuffix(filepath.Base(path), ".seg"), 10, 64)
		must(t, err)
		must(t, os.Remove(path))
		for len(raw) > 0 {
			cut, frames := 0, uint64(0)
			for cut < max && cut+8 <= len(raw) {
				cut += 8 + int(binary.LittleEndian.Uint32(raw[cut:])) // u32 payload length, u32 CRC, payload
				frames++
			}
			cut = min(cut, len(raw))
			must(t, os.WriteFile(filepath.Join(filepath.Dir(path), fmt.Sprintf("%020d.seg", base)), raw[:cut], 0o644))
			raw, base = raw[cut:], base+frames
		}
	}
}

// segmentsOf lists a partition directory's segments, oldest first, failing
// the test when there are fewer than atLeast.
func segmentsOf(t *testing.T, partDir string, atLeast int) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(partDir, "*.seg"))
	must(t, err)
	sort.Strings(segs)
	if len(segs) < atLeast {
		t.Fatalf("%s holds %d segments, the case needs %d", partDir, len(segs), atLeast)
	}
	return segs
}

// flipByte corrupts one byte in the middle of a file.
func flipByte(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	must(t, err)
	raw[len(raw)/2] ^= 0x40
	must(t, os.WriteFile(path, raw, 0o644))
}

// tear appends a partial frame, as a writer killed mid-append leaves one.
func tear(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	must(t, err)
	_, err = f.Write([]byte{0x30, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 7, 0, 0})
	must(t, err)
	must(t, f.Close())
}

// replicasOf returns the node directories holding a replica of tasks[pi], in
// node order.
func replicasOf(t *testing.T, dir string, pi int) []string {
	t.Helper()
	parts, err := filepath.Glob(filepath.Join(dir, "node-*", "topics", "tasks", fmt.Sprintf("p%04d", pi)))
	must(t, err)
	sort.Strings(parts)
	var holding []string
	for _, p := range parts {
		if segs, _ := filepath.Glob(filepath.Join(p, "*.seg")); len(segs) > 0 {
			holding = append(holding, p)
		}
	}
	if len(holding) < 2 {
		t.Fatalf("tasks[%d] has %d replicas on disk, want 2", pi, len(holding))
	}
	return holding
}

// lag makes a replica lag: its newest segment goes, leaving a shorter log
// that is still a prefix of the other replica's.
func lag(t *testing.T, partDir string) {
	t.Helper()
	segs := segmentsOf(t, partDir, 3)
	must(t, os.Remove(segs[len(segs)-1]))
}

// reframe rewrites every frame of a partition directory's segments with its
// metadata passed through edit, each segment keeping its records: a replica
// as long as before whose bytes are its own.
func reframe(t *testing.T, partDir string, edit func(meta []byte) []byte) {
	t.Helper()
	for _, seg := range segmentsOf(t, partDir, 1) {
		raw, err := os.ReadFile(seg)
		must(t, err)
		evs, whole := refFrames(raw)
		if !whole {
			t.Fatalf("%s is not whole frames", seg)
		}
		var out []byte
		for _, ev := range evs {
			out = append(out, refFrame(string(edit(bytes.Clone(ev.meta))))...)
		}
		must(t, os.WriteFile(seg, out, 0o644))
	}
}

// TestPostMortemOpen holds the one-pass, partition-parallel open — of a
// standalone data dir and of a cluster dir — to the serial reference above on
// every shape of directory a run can leave behind, and checks that opening
// changes nothing on disk.
func TestPostMortemOpen(t *testing.T) {
	p := func(dir string, parts ...string) string { return filepath.Join(append([]string{dir}, parts...)...) }
	cases := []struct {
		name    string
		cluster bool
		build   func(t *testing.T, dir string)
		corrupt bool // the open must fail with wal.ErrCorrupt
		shape   bool // the open must fail naming the topic and the two node directories
	}{
		{name: "clean multi-segment dir, empty partition, cursors", build: standaloneDir},
		{name: "kill -9 torn tail", build: func(t *testing.T, dir string) {
			standaloneDir(t, dir)
			segs := segmentsOf(t, p(dir, "topics", "a", "p0001"), 2)
			tear(t, segs[len(segs)-1])
		}},
		{name: "corruption inside the newest segment", build: func(t *testing.T, dir string) {
			standaloneDir(t, dir)
			segs := segmentsOf(t, p(dir, "topics", "a", "p0000"), 2)
			flipByte(t, segs[len(segs)-1])
		}},
		{name: "corruption inside an older segment", corrupt: true, build: func(t *testing.T, dir string) {
			standaloneDir(t, dir)
			flipByte(t, segmentsOf(t, p(dir, "topics", "b", "p0001"), 2)[0])
		}},
		{name: "partition directory missing", build: func(t *testing.T, dir string) {
			standaloneDir(t, dir)
			must(t, os.RemoveAll(p(dir, "topics", "b", "p0002")))
		}},
		{name: "RF2 cluster dir", cluster: true, build: func(t *testing.T, dir string) { clusterDir(t, dir, 0) }},
		{name: "RF2 cluster dir, first replica lagging", cluster: true, build: func(t *testing.T, dir string) {
			clusterDir(t, dir, 0)
			lag(t, replicasOf(t, dir, 1)[0])
		}},
		{name: "RF2 cluster dir, broker killed mid-run", cluster: true, build: func(t *testing.T, dir string) { clusterDir(t, dir, 60) }},
		{name: "RF2 cluster dir, one replica torn", cluster: true, build: func(t *testing.T, dir string) {
			clusterDir(t, dir, 0)
			segs := segmentsOf(t, replicasOf(t, dir, 2)[1], 1)
			tear(t, segs[len(segs)-1])
		}},
		{name: "RF2 cluster dir, corruption in the replica that is not the donor", cluster: true, corrupt: true, build: func(t *testing.T, dir string) {
			clusterDir(t, dir, 0)
			loser := replicasOf(t, dir, 0)[1]
			lag(t, loser)
			flipByte(t, segmentsOf(t, loser, 2)[0])
		}},
		{name: "RF2 cluster dir, torn tail on the replica with the most bytes", cluster: true, build: func(t *testing.T, dir string) {
			// The later replica is as long, in as many bytes of its own;
			// its torn tail makes it the larger, and the earlier must win.
			clusterDir(t, dir, 0)
			later := replicasOf(t, dir, 1)[1]
			reframe(t, later, func(meta []byte) []byte { return bytes.ReplaceAll(meta, []byte("x"), []byte("y")) })
			segs := segmentsOf(t, later, 1)
			tear(t, segs[len(segs)-1])
		}},
		{name: "RF2 cluster dir, the replica with fewer bytes holds more records", cluster: true, build: func(t *testing.T, dir string) {
			clusterDir(t, dir, 0)
			bigger := replicasOf(t, dir, 2)[0]
			reframe(t, bigger, func(meta []byte) []byte {
				return bytes.ReplaceAll(meta, []byte("x"), []byte("xxxx"))
			})
			lag(t, bigger)
		}},
		{name: "RF2 cluster dir, a node declaring a topic with more partitions", cluster: true, shape: true, build: func(t *testing.T, dir string) {
			clusterDir(t, dir, 0)
			node := filepath.Join(dir, "node-01", "topics", "tasks")
			must(t, os.WriteFile(filepath.Join(node, "topic.json"), []byte(`{"name":"tasks","partitions":4}`), 0o644))
			must(t, os.MkdirAll(filepath.Join(node, "p0003"), 0o755))
			must(t, os.WriteFile(filepath.Join(node, "p0003", "00000000000000000000.seg"),
				refFrame(`{"i":0}`), 0o644))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			open, replicas := mofka.OpenPostMortem, []string{dir}
			if tc.cluster {
				open = OpenPostMortem
				var err error
				replicas, err = filepath.Glob(filepath.Join(dir, "node-*"))
				must(t, err)
				sort.Strings(replicas)
			}
			want, refErr := refOpen(t, replicas)
			if (refErr == errRefCorrupt) != tc.corrupt || (refErr == errRefShape) != tc.shape {
				t.Fatalf("the case is mis-built: reference says %v, corrupt=%v shape=%v", refErr, tc.corrupt, tc.shape)
			}

			before := dirImage(t, dir)
			b, err := open(dir)
			switch {
			case tc.corrupt:
				if !errors.Is(err, wal.ErrCorrupt) {
					t.Fatalf("open of a dir with interior corruption: %v, want wal.ErrCorrupt", err)
				}
			case tc.shape:
				if err == nil || !strings.Contains(err.Error(), "tasks") ||
					!strings.Contains(err.Error(), replicas[0]) || !strings.Contains(err.Error(), replicas[1]) {
					t.Fatalf("open of nodes disagreeing on a topic's partitions: %v, want an error naming tasks, %s and %s",
						err, replicas[0], replicas[1])
				}
			default:
				must(t, err)
				checkView(t, b, want)
				must(t, b.Close())
			}
			if after := dirImage(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatal("the read-only open changed the directory")
			}
		})
	}
}
