package darshan

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"taskprov/internal/pfs"
	"taskprov/internal/posixio"
	"taskprov/internal/sim"
)

func cfg() Config {
	return Config{
		JobID: "job-1", Rank: 0, Hostname: "nid00001", Exe: "workflow.py",
		DXTEnabled: true,
	}
}

func op(path string, tid uint64, off, n int64, start, end float64) posixio.OpRecord {
	return posixio.OpRecord{
		Path: path, TID: tid, Offset: off, Bytes: n,
		Start: sim.Seconds(start), End: sim.Seconds(end),
	}
}

func TestCountersAccumulate(t *testing.T) {
	r := NewRuntime(cfg())
	r.OpenEvent(op("/f", 1, 0, 0, 0.0, 0.001), true)
	r.ReadEvent(op("/f", 1, 0, 4096, 0.01, 0.02))
	r.ReadEvent(op("/f", 1, 4096, 4096, 0.02, 0.05))
	r.WriteEvent(op("/f", 1, 0, 100, 0.06, 0.07))
	r.CloseEvent(op("/f", 1, 0, 0, 0.08, 0.08))

	log := r.Snapshot()
	rec, ok := log.Record("/f")
	if !ok {
		t.Fatal("record missing")
	}
	c := rec.Counters
	if c.Opens != 1 || c.Reads != 2 || c.Writes != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if c.BytesRead != 8192 || c.BytesWritten != 100 {
		t.Fatalf("bytes = %d read, %d written", c.BytesRead, c.BytesWritten)
	}
	if c.MaxByteRead != 8192 || c.MaxByteWritten != 100 {
		t.Fatalf("max bytes = %d, %d", c.MaxByteRead, c.MaxByteWritten)
	}
	if got := c.ReadTime; got < 0.039 || got > 0.041 {
		t.Fatalf("ReadTime = %v", got)
	}
	if c.ReadStart != 0.01 || c.ReadEnd != 0.05 {
		t.Fatalf("read window = [%v, %v]", c.ReadStart, c.ReadEnd)
	}
	if c.CloseEnd != 0.08 {
		t.Fatalf("CloseEnd = %v", c.CloseEnd)
	}
}

func TestSizeHistogram(t *testing.T) {
	r := NewRuntime(cfg())
	sizes := []int64{50, 500, 5 << 10, 50 << 10, 500 << 10, 2 << 20, 8 << 20, 50 << 20, 500 << 20, 2 << 30}
	for i, s := range sizes {
		r.ReadEvent(op("/f", 1, 0, s, float64(i), float64(i)+0.1))
	}
	log := r.Snapshot()
	rec, _ := log.Record("/f")
	for i := 0; i < NumSizeBuckets; i++ {
		if rec.Counters.SizeHistRead[i] != 1 {
			t.Fatalf("bucket %d (%s) = %d, want 1", i, SizeBucketLabel(i), rec.Counters.SizeHistRead[i])
		}
	}
}

func TestSizeBucketBoundaries(t *testing.T) {
	cases := map[int64]int{0: 0, 99: 0, 100: 1, 1023: 1, 1024: 2, 4 << 20: 6, (1 << 30) + 5: 9}
	for n, want := range cases {
		if got := SizeBucket(n); got != want {
			t.Errorf("SizeBucket(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestDXTSegmentsCarryTIDs(t *testing.T) {
	r := NewRuntime(cfg())
	r.ReadEvent(op("/f", 42, 0, 4096, 1.0, 1.1))
	r.WriteEvent(op("/f", 43, 100, 200, 2.0, 2.2))
	log := r.Snapshot()
	rec, _ := log.Record("/f")
	if len(rec.DXT) != 2 {
		t.Fatalf("segments = %d", len(rec.DXT))
	}
	rd, wr := rec.DXT[0], rec.DXT[1]
	if rd.Op != OpRead || rd.TID != 42 || rd.Length != 4096 || rd.Start != 1.0 {
		t.Fatalf("read segment = %+v", rd)
	}
	if wr.Op != OpWrite || wr.TID != 43 || wr.Offset != 100 {
		t.Fatalf("write segment = %+v", wr)
	}
}

func TestDXTDisabled(t *testing.T) {
	c := cfg()
	c.DXTEnabled = false
	r := NewRuntime(c)
	r.ReadEvent(op("/f", 1, 0, 10, 0, 1))
	log := r.Snapshot()
	rec, _ := log.Record("/f")
	if len(rec.DXT) != 0 {
		t.Fatal("DXT recorded while disabled")
	}
	if rec.Counters.Reads != 1 {
		t.Fatal("POSIX counters must still work with DXT off")
	}
}

func TestDXTBufferLimitTruncates(t *testing.T) {
	c := cfg()
	c.DXTBufferSegments = 10
	r := NewRuntime(c)
	for i := 0; i < 25; i++ {
		r.ReadEvent(op("/f", 1, int64(i)*100, 100, float64(i), float64(i)+0.5))
	}
	if r.DXTDropped() != 15 {
		t.Fatalf("dropped = %d, want 15", r.DXTDropped())
	}
	log := r.Snapshot()
	rec, _ := log.Record("/f")
	if len(rec.DXT) != 10 {
		t.Fatalf("kept segments = %d, want 10", len(rec.DXT))
	}
	if rec.Counters.Reads != 25 {
		t.Fatalf("POSIX counters must be unaffected by DXT truncation: %d", rec.Counters.Reads)
	}
	if !log.Job.Partial || log.Job.DXTDropped != 15 {
		t.Fatalf("header = %+v, want Partial with 15 dropped", log.Job)
	}
}

func TestSnapshotSortedAndIsolated(t *testing.T) {
	r := NewRuntime(cfg())
	r.ReadEvent(op("/z", 1, 0, 10, 0, 1))
	r.ReadEvent(op("/a", 1, 0, 10, 1, 2))
	log := r.Snapshot()
	if len(log.Records) != 2 || log.Records[0].Path != "/a" || log.Records[1].Path != "/z" {
		t.Fatalf("records = %+v", log.Records)
	}
	// Further events must not mutate the snapshot.
	r.ReadEvent(op("/a", 1, 0, 10, 2, 3))
	if log.Records[0].Counters.Reads != 1 {
		t.Fatal("snapshot mutated by later events")
	}
}

// TestTotalsAndTotalOps: the snapshot's per-file counters sum to the
// operations the runtime saw, and TotalOps counts its reads and writes.
func TestTotalsAndTotalOps(t *testing.T) {
	r := NewRuntime(cfg())
	r.OpenEvent(op("/a", 1, 0, 0, 0, 0.001), false)
	r.ReadEvent(op("/a", 1, 0, 10, 0, 1))
	r.WriteEvent(op("/b", 2, 0, 10, 0, 1))
	log := r.Snapshot()
	var o, rd, wr int64
	for _, rec := range log.Records {
		o, rd, wr = o+rec.Counters.Opens, rd+rec.Counters.Reads, wr+rec.Counters.Writes
	}
	if o != 1 || rd != 1 || wr != 1 {
		t.Fatalf("totals = %d %d %d", o, rd, wr)
	}
	if got := log.TotalOps(); got != 2 {
		t.Fatalf("TotalOps = %d", got)
	}
}

func TestJobWindowTracksClock(t *testing.T) {
	r := NewRuntime(cfg())
	r.ReadEvent(op("/f", 1, 0, 10, 5.0, 6.0))
	r.ReadEvent(op("/f", 1, 0, 10, 2.0, 3.0))
	log := r.Snapshot()
	if log.Job.StartTime != 2.0 || log.Job.EndTime != 6.0 {
		t.Fatalf("job window = [%v, %v]", log.Job.StartTime, log.Job.EndTime)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	r := NewRuntime(cfg())
	r.OpenEvent(op("/data/img-001.png", 7, 0, 0, 0.1, 0.101), false)
	for i := 0; i < 20; i++ {
		r.ReadEvent(op("/data/img-001.png", 7, int64(i)*4<<20, 4<<20, float64(i), float64(i)+0.3))
	}
	r.WriteEvent(op("/out/result.png", 8, 0, 80<<20, 25, 27))
	r.CloseEvent(op("/data/img-001.png", 7, 0, 0, 30, 30))

	orig := r.Snapshot()
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Job != orig.Job {
		t.Fatalf("job header mismatch:\n%+v\n%+v", got.Job, orig.Job)
	}
	if len(got.Records) != len(orig.Records) {
		t.Fatalf("record count %d vs %d", len(got.Records), len(orig.Records))
	}
	for i := range got.Records {
		g, o := got.Records[i], orig.Records[i]
		if g.Path != o.Path || g.Counters != o.Counters {
			t.Fatalf("record %d mismatch:\n%+v\n%+v", i, g, o)
		}
		if len(g.DXT) != len(o.DXT) {
			t.Fatalf("record %d DXT %d vs %d", i, len(g.DXT), len(o.DXT))
		}
		for j := range g.DXT {
			if g.DXT[j] != o.DXT[j] {
				t.Fatalf("segment %d/%d mismatch: %+v vs %+v", i, j, g.DXT[j], o.DXT[j])
			}
		}
	}
}

// TestLogCodecAllocationsDoNotGrowWithSegments: a log's words are encoded
// through a scratch word the writer keeps and decoded from one the reader
// keeps, so writing a log of 2 000 DXT segments costs the mallocs one of 20
// does, and reading it only the growth of its segment slice, which is
// appended to rather than sized from a count a corrupt log could inflate.
// (binary.Write and binary.Read allocated for every word: ≈10 000 mallocs
// each way.)
func TestLogCodecAllocationsDoNotGrowWithSegments(t *testing.T) {
	build := func(segments int) *Log {
		r := NewRuntime(cfg())
		r.OpenEvent(op("/data/img-001.png", 7, 0, 0, 0.1, 0.101), false)
		for i := 0; i < segments; i++ {
			r.ReadEvent(op("/data/img-001.png", 7, int64(i)*4<<10, 4<<10, float64(i), float64(i)+0.3))
		}
		return r.Snapshot()
	}
	costs := func(l *Log) (write, read float64) {
		var buf bytes.Buffer
		if err := l.Write(&buf); err != nil {
			t.Fatal(err)
		}
		encoded := buf.Bytes()
		write = testing.AllocsPerRun(20, func() {
			buf.Reset()
			if err := l.Write(&buf); err != nil {
				t.Fatal(err)
			}
		})
		read = testing.AllocsPerRun(20, func() {
			if _, err := ReadLog(bytes.NewReader(encoded)); err != nil {
				t.Fatal(err)
			}
		})
		return write, read
	}
	small, large := build(20), build(2000)
	if n := large.TotalDXTSegments(); n != 2000 {
		t.Fatalf("the large log holds %d DXT segments, want 2000", n)
	}
	sw, sr := costs(small)
	lw, lr := costs(large)
	t.Logf("write: %v mallocs for 20 segments, %v for 2000; read: %v and %v", sw, lw, sr, lr)
	if lw > sw || lr > sr+16 {
		t.Errorf("2000 DXT segments cost %v mallocs to write and %v to read, 20 cost %v and %v: want no more to write, at most 16 more to read", lw, lr, sw, sr)
	}
}

func TestReadLogRejectsGarbage(t *testing.T) {
	if _, err := ReadLog(bytes.NewReader([]byte("GARBAGE FILE"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadLog(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Right magic, wrong version.
	bad := append([]byte("DSHN"), 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := ReadLog(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("Op.String wrong")
	}
}

func TestEndToEndWithPosixio(t *testing.T) {
	// Integration: darshan as the tracer behind the POSIX layer.
	k := sim.NewKernel(1)
	pfsCfg := pfs.Lustre()
	pfsCfg.InterferenceLoad = 0
	fs := posixio.NewFS(pfs.New(k, pfsCfg))
	rt := NewRuntime(cfg())
	k.Go(func(p *sim.Proc) {
		f, err := fs.Open(p, rt, 11, "/lus/grand/file", posixio.WRONLY|posixio.CREATE)
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(p, 1<<20)
		f.Write(p, 1<<20)
		f.Close(p)
		g, err := fs.Open(p, rt, 12, "/lus/grand/file", posixio.RDONLY)
		if err != nil {
			t.Error(err)
			return
		}
		g.Read(p, 2<<20)
		g.Close(p)
	})
	k.Run()
	log := rt.Snapshot()
	rec, ok := log.Record("/lus/grand/file")
	if !ok {
		t.Fatal("no record for file")
	}
	if rec.Counters.Writes != 2 || rec.Counters.Reads != 1 {
		t.Fatalf("counters = %+v", rec.Counters)
	}
	if len(rec.DXT) != 3 {
		t.Fatalf("DXT = %d segments", len(rec.DXT))
	}
	tids := map[uint64]bool{}
	for _, s := range rec.DXT {
		tids[s.TID] = true
	}
	if !tids[11] || !tids[12] {
		t.Fatalf("TIDs = %v", tids)
	}
}

func TestFileRecordTableLimit(t *testing.T) {
	c := cfg()
	c.MaxFileRecords = 3
	r := NewRuntime(c)
	for i := 0; i < 8; i++ {
		path := fmt.Sprintf("/f%d", i)
		r.OpenEvent(op(path, 1, 0, 0, float64(i), float64(i)+0.1), false)
		r.ReadEvent(op(path, 1, 0, 100, float64(i), float64(i)+0.2))
	}
	log := r.Snapshot()
	if len(log.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(log.Records))
	}
	if r.RecordsDropped() != 10 { // 5 extra files x (open+read)
		t.Fatalf("dropped = %d, want 10", r.RecordsDropped())
	}
	if !log.Job.Partial || log.Job.RecordsDropped != 10 {
		t.Fatalf("header = %+v", log.Job)
	}
	// Tracked files keep full fidelity.
	if rec, ok := log.Record("/f0"); !ok || rec.Counters.Reads != 1 {
		t.Fatalf("tracked record wrong: %+v", rec)
	}
}

func TestExistingRecordStillTrackedWhenTableFull(t *testing.T) {
	c := cfg()
	c.MaxFileRecords = 1
	r := NewRuntime(c)
	r.ReadEvent(op("/keep", 1, 0, 100, 0, 1))
	r.ReadEvent(op("/drop", 1, 0, 100, 1, 2))
	r.ReadEvent(op("/keep", 1, 100, 100, 2, 3))
	log := r.Snapshot()
	rec, _ := log.Record("/keep")
	if rec.Counters.Reads != 2 {
		t.Fatalf("tracked file reads = %d, want 2", rec.Counters.Reads)
	}
}

func TestSummarize(t *testing.T) {
	mk := func(rank int, host string) *Log {
		r := NewRuntime(Config{JobID: "job-9", Rank: rank, Hostname: host, DXTEnabled: true})
		r.OpenEvent(op("/shared.dat", 1, 0, 0, 0.5, 0.51), false)
		r.ReadEvent(op("/shared.dat", 1, 0, 4<<20, 1, 1.5))
		r.WriteEvent(op(fmt.Sprintf("/out-%d", rank), 1, 0, 1<<20, 2, 2.2))
		return r.Snapshot()
	}
	logs := []*Log{mk(0, "n0"), mk(1, "n1"), mk(2, "n0")}
	s := Summarize(logs, 2)
	if s.JobID != "job-9" || s.Processes != 3 || s.Files != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Reads != 3 || s.Writes != 3 || s.Opens != 3 {
		t.Fatalf("ops = %+v", s)
	}
	if s.BytesRead != 3*4<<20 || s.BytesWritten != 3<<20 {
		t.Fatalf("bytes = %d/%d", s.BytesRead, s.BytesWritten)
	}
	if s.Start != 0.5 || s.End != 2.2 {
		t.Fatalf("window = [%v, %v]", s.Start, s.End)
	}
	// TopFiles bounded and sorted by bytes: /shared.dat (12MB) first.
	if len(s.TopFiles) != 2 || s.TopFiles[0].Path != "/shared.dat" {
		t.Fatalf("top files = %+v", s.TopFiles)
	}
	if s.TopFiles[0].Processes != 3 {
		t.Fatalf("shared file seen by %d processes", s.TopFiles[0].Processes)
	}
	if s.Partial {
		t.Fatal("complete logs flagged partial")
	}
	out := s.Render()
	for _, want := range []string{"job-9", "3 processes", "top files", "/shared.dat"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizePartialPropagates(t *testing.T) {
	c := cfg()
	c.DXTBufferSegments = 1
	r := NewRuntime(c)
	r.ReadEvent(op("/f", 1, 0, 10, 0, 1))
	r.ReadEvent(op("/f", 1, 10, 10, 1, 2))
	s := Summarize([]*Log{r.Snapshot()}, 0)
	if !s.Partial || s.DXTDropped != 1 {
		t.Fatalf("partial propagation: %+v", s)
	}
	if !strings.Contains(s.Render(), "PARTIAL") {
		t.Fatal("render missing PARTIAL warning")
	}
}
