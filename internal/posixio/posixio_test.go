package posixio

import (
	"errors"
	"testing"

	"taskprov/internal/pfs"
	"taskprov/internal/sim"
)

type captureTracer struct {
	opens, reads, writes, closes []OpRecord
	created                      []bool
}

func (c *captureTracer) OpenEvent(r OpRecord, created bool) {
	c.opens = append(c.opens, r)
	c.created = append(c.created, created)
}
func (c *captureTracer) ReadEvent(r OpRecord)  { c.reads = append(c.reads, r) }
func (c *captureTracer) WriteEvent(r OpRecord) { c.writes = append(c.writes, r) }
func (c *captureTracer) CloseEvent(r OpRecord) { c.closes = append(c.closes, r) }

func newFS(seed uint64) (*sim.Kernel, *FS) {
	k := sim.NewKernel(seed)
	cfg := pfs.Lustre()
	cfg.InterferenceLoad = 0
	return k, NewFS(pfs.New(k, cfg))
}

func TestOpenMissingFails(t *testing.T) {
	k, fs := newFS(1)
	var err error
	k.Go(func(p *sim.Proc) {
		_, err = fs.Open(p, nil, 1, "/missing", RDONLY)
	})
	k.Run()
	if !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	k, fs := newFS(1)
	var readN int64
	k.Go(func(p *sim.Proc) {
		f, err := fs.Open(p, nil, 1, "/data/file", WRONLY|CREATE)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if n := f.Write(p, 4096); n != 4096 {
			t.Errorf("write n = %d", n)
		}
		f.Close(p)
		g, err := fs.Open(p, nil, 1, "/data/file", RDONLY)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		readN = g.Read(p, 8192)
		g.Close(p)
	})
	k.Run()
	if readN != 4096 {
		t.Fatalf("read back %d bytes, want 4096", readN)
	}
}

func TestOffsetsAdvance(t *testing.T) {
	k, fs := newFS(1)
	k.Go(func(p *sim.Proc) {
		f, _ := fs.Open(p, nil, 1, "/f", WRONLY|CREATE)
		f.Write(p, 100)
		f.Write(p, 100)
		if f.offset != 200 {
			t.Errorf("offset after two writes = %d", f.offset)
		}
		if f.file.Size != 200 {
			t.Errorf("size = %d", f.file.Size)
		}
	})
	k.Run()
}

func TestTracerSeesAllOps(t *testing.T) {
	k, fs := newFS(1)
	tr := &captureTracer{}
	k.Go(func(p *sim.Proc) {
		f, _ := fs.Open(p, tr, 77, "/traced", WRONLY|CREATE)
		f.Pwrite(p, 0, 1<<20)
		f.Pread(p, 0, 1<<19)
		f.Close(p)
	})
	k.Run()
	if len(tr.opens) != 1 || !tr.created[0] {
		t.Fatalf("opens = %+v created=%v", tr.opens, tr.created)
	}
	if len(tr.writes) != 1 || tr.writes[0].Bytes != 1<<20 || tr.writes[0].TID != 77 {
		t.Fatalf("writes = %+v", tr.writes)
	}
	if len(tr.reads) != 1 || tr.reads[0].Bytes != 1<<19 {
		t.Fatalf("reads = %+v", tr.reads)
	}
	if len(tr.closes) != 1 {
		t.Fatalf("closes = %+v", tr.closes)
	}
	w := tr.writes[0]
	if w.End <= w.Start {
		t.Fatalf("write has no duration: %+v", w)
	}
	if w.Path != "/traced" {
		t.Fatalf("path = %q", w.Path)
	}
}

func TestTracerTimestampsOrdered(t *testing.T) {
	k, fs := newFS(1)
	tr := &captureTracer{}
	k.Go(func(p *sim.Proc) {
		f, _ := fs.Open(p, tr, 1, "/f", WRONLY|CREATE)
		for i := 0; i < 5; i++ {
			f.Write(p, 4096)
		}
		f.Close(p)
	})
	k.Run()
	for i := 1; i < len(tr.writes); i++ {
		if tr.writes[i].Start < tr.writes[i-1].End {
			t.Fatalf("sequential writes overlap: %+v then %+v", tr.writes[i-1], tr.writes[i])
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	k, fs := newFS(1)
	tr := &captureTracer{}
	k.Go(func(p *sim.Proc) {
		f, _ := fs.Open(p, tr, 1, "/f", WRONLY|CREATE)
		f.Close(p)
		f.Close(p)
	})
	k.Run()
	if len(tr.closes) != 1 {
		t.Fatalf("double close recorded %d events", len(tr.closes))
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	k, fs := newFS(1)
	k.Go(func(p *sim.Proc) {
		f, _ := fs.Open(p, nil, 1, "/f", WRONLY|CREATE)
		f.Write(p, 10)
		f.Read(p, 10)
		f.Close(p)
	})
	k.Run()
}

func TestConcurrentThreadsDistinctTIDs(t *testing.T) {
	k, fs := newFS(1)
	tr := &captureTracer{}
	for tid := uint64(1); tid <= 4; tid++ {
		tid := tid
		k.Go(func(p *sim.Proc) {
			f, _ := fs.Open(p, tr, tid, "/shared", WRONLY|CREATE)
			f.Write(p, 1<<16)
			f.Close(p)
		})
	}
	k.Run()
	tids := map[uint64]bool{}
	for _, w := range tr.writes {
		tids[w.TID] = true
	}
	if len(tids) != 4 {
		t.Fatalf("expected 4 distinct TIDs in trace, got %v", tids)
	}
}

// TestPFSOpAllocatesNothing: a blocking read and a write, each striped over
// two OSTs, cost no malloc once the POSIX layer's and the file system's
// recycled operations exist — the process parks and resumes, the latency
// event, the fan-out over both OSTs and the completions included.
func TestPFSOpAllocatesNothing(t *testing.T) {
	k, fs := newFS(1)
	stripe := pfs.Lustre().StripeSize
	fs.PFS().CreateNow("/data/striped", 4*stripe)
	var f *File
	k.Go(func(p *sim.Proc) {
		var err error
		if f, err = fs.Open(p, nil, 1, "/data/striped", RDONLY|WRONLY); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	var read, wrote int64
	body := func(p *sim.Proc) {
		// [stripe/2, stripe/2+stripe) starts in one stripe and ends in the
		// next, which the layout puts on another OST.
		read = f.Pread(p, stripe/2, stripe)
		wrote = f.Pwrite(p, stripe/2, stripe)
	}
	op := func() {
		k.Go(body)
		k.Run()
	}
	op() // warm-up: free lists and scratch reach their steady size
	if n := testing.AllocsPerRun(200, op); n != 0 {
		t.Errorf("Pread + Pwrite over two OSTs: %v allocs, budget 0", n)
	}
	if read != stripe || wrote != stripe {
		t.Errorf("read %d, wrote %d bytes, want %d each", read, wrote, stripe)
	}
}
