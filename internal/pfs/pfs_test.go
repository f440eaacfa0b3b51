package pfs

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"taskprov/internal/sim"
)

func quiet() Config {
	c := Lustre()
	c.LatencyCV = 0
	c.InterferenceLoad = 0
	return c
}

func TestCreateOpen(t *testing.T) {
	k := sim.NewKernel(1)
	fs := New(k, quiet())
	var created, opened *File
	fs.Create("/data/a.img", func(f *File) {
		created = f
		fs.Open("/data/a.img", func(f *File) {
			opened = f
		})
	})
	k.Run()
	if created == nil || opened != created {
		t.Fatalf("lifecycle failed: created=%v opened=%v", created, opened)
	}
	if fs.Lookup("/data/a.img") != created {
		t.Fatal("created file not in the namespace")
	}
}

func TestOpenMissingFileYieldsNil(t *testing.T) {
	k := sim.NewKernel(1)
	fs := New(k, quiet())
	ran := false
	fs.Open("/nope", func(f *File) {
		ran = true
		if f != nil {
			t.Error("open of missing file returned a file")
		}
	})
	k.Run()
	if !ran {
		t.Fatal("callback never ran")
	}
}

func TestWriteExtendsAndReadClamps(t *testing.T) {
	k := sim.NewKernel(1)
	fs := New(k, quiet())
	var readN int64 = -1
	var eofN int64 = -1
	fs.Create("/f", func(f *File) {
		fs.Write(f, 0, 1000, func(n int64) {
			if n != 1000 {
				t.Errorf("write n = %d", n)
			}
			if f.Size != 1000 {
				t.Errorf("size after write = %d", f.Size)
			}
			fs.Read(f, 900, 500, func(n int64) {
				readN = n
				fs.Read(f, 2000, 100, func(n int64) { eofN = n })
			})
		})
	})
	k.Run()
	if readN != 100 {
		t.Fatalf("clamped read returned %d, want 100", readN)
	}
	if eofN != 0 {
		t.Fatalf("read past EOF returned %d, want 0", eofN)
	}
}

func TestWriteAtOffsetExtends(t *testing.T) {
	k := sim.NewKernel(1)
	fs := New(k, quiet())
	fs.Create("/f", func(f *File) {
		fs.Write(f, 500, 250, func(int64) {
			if f.Size != 750 {
				t.Errorf("size = %d, want 750", f.Size)
			}
		})
	})
	k.Run()
}

func TestStripingSpreadsAcrossOSTs(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := quiet()
	cfg.StripeSize = 1 << 20
	cfg.StripeCount = 4
	fs := New(k, cfg)
	f := &File{Path: "/f", Size: 100 << 20, StripeStart: 0, StripeCount: 4}
	parts := fs.ostsFor(f, 0, 8<<20)
	if len(parts) != 4 {
		t.Fatalf("8MiB over 4 stripes of 1MiB touched %d OSTs, want 4", len(parts))
	}
	var total float64
	for _, p := range parts {
		total += p.bytes
		if p.bytes != 2<<20 {
			t.Errorf("uneven stripe share: %v", p.bytes)
		}
	}
	if total != 8<<20 {
		t.Fatalf("striped bytes = %v, want %v", total, 8<<20)
	}
}

func TestStripingPartialRange(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := quiet()
	cfg.StripeSize = 1000
	cfg.StripeCount = 2
	fs := New(k, cfg)
	f := &File{Path: "/f", Size: 10000, StripeStart: 0, StripeCount: 2}
	// Range [500, 1700) = 500 bytes on stripe 0 (ost0), 1000 on stripe 1
	// (ost1), then... wait: [500,1000) on stripe0, [1000,1700) on stripe1.
	parts := fs.ostsFor(f, 500, 1200)
	var total float64
	for _, p := range parts {
		total += p.bytes
	}
	if total != 1200 {
		t.Fatalf("partial range bytes = %v, want 1200", total)
	}
	if len(parts) != 2 {
		t.Fatalf("touched %d OSTs, want 2", len(parts))
	}
}

func TestZeroSizeOps(t *testing.T) {
	k := sim.NewKernel(1)
	fs := New(k, quiet())
	var wrote, read int64 = -1, -1
	fs.Create("/f", func(f *File) {
		fs.Write(f, 0, 0, func(n int64) {
			wrote = n
			fs.Read(f, 0, 0, func(n int64) { read = n })
		})
	})
	k.Run()
	if wrote != 0 || read != 0 {
		t.Fatalf("zero-size ops: wrote=%d read=%d", wrote, read)
	}
}

func TestLargerReadsTakeLonger(t *testing.T) {
	measure := func(size int64) sim.Time {
		k := sim.NewKernel(1)
		fs := New(k, quiet())
		var done sim.Time
		fs.Create("/f", func(f *File) {
			fs.Write(f, 0, size, func(int64) {
				start := k.Now()
				fs.Read(f, 0, size, func(int64) { done = k.Now() - start })
			})
		})
		k.Run()
		return done
	}
	small := measure(1 << 20)
	big := measure(64 << 20)
	if big <= small {
		t.Fatalf("64MiB read (%v) not slower than 1MiB read (%v)", big, small)
	}
}

func TestInterferenceSlowsIO(t *testing.T) {
	measure := func(load float64, seed uint64) sim.Time {
		cfg := quiet()
		cfg.InterferenceLoad = load
		k := sim.NewKernel(seed)
		fs := New(k, cfg)
		var elapsed sim.Time
		// Let background traffic develop before measuring.
		k.After(sim.Seconds(5), func() {
			fs.Create("/f", func(f *File) {
				fs.Write(f, 0, 256<<20, func(int64) {
					start := k.Now()
					fs.Read(f, 0, 256<<20, func(int64) { elapsed = k.Now() - start })
				})
			})
		})
		k.RunUntil(sim.Seconds(120))
		k.Stop()
		return elapsed
	}
	calm := measure(0, 1)
	// Average over seeds: interference is stochastic.
	var busy sim.Time
	const n = 5
	for s := uint64(0); s < n; s++ {
		busy += measure(0.5, s)
	}
	busy /= n
	if busy <= calm {
		t.Fatalf("interference did not slow I/O: calm=%v busy=%v", calm, busy)
	}
}

func TestCountsAccumulate(t *testing.T) {
	k := sim.NewKernel(1)
	fs := New(k, quiet())
	fs.Create("/f", func(f *File) {
		fs.Write(f, 0, 10, func(int64) {
			fs.Read(f, 0, 10, nil)
		})
	})
	k.Run()
	r, w, o := fs.Counts()
	if r != 1 || w != 1 || o != 1 {
		t.Fatalf("counts = %d %d %d", r, w, o)
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"/a/b":    "/a/b",
		"a/b":     "/a/b",
		"/a//b/":  "/a/b",
		"/a/./b":  "/a/b",
		"/a/../b": "/b",
		"":        "/",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestListPrefix(t *testing.T) {
	k := sim.NewKernel(1)
	fs := New(k, quiet())
	for _, p := range []string{"/data/x", "/data/y", "/other/z"} {
		fs.Create(p, nil)
	}
	k.Run()
	got := fs.List("/data")
	if len(got) != 2 || got[0] != "/data/x" || got[1] != "/data/y" {
		t.Fatalf("List(/data) = %v", got)
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	k := sim.NewKernel(1)
	fs := New(k, quiet())
	fs.Create("/f", func(f *File) {
		fs.Write(f, 0, 100, func(int64) {
			fs.Create("/f", func(f2 *File) {
				if f2 != f {
					t.Error("re-create returned a different file object")
				}
				if f2.Size != 0 {
					t.Errorf("re-create did not truncate: size=%d", f2.Size)
				}
			})
		})
	})
	k.Run()
}

func TestDescribe(t *testing.T) {
	k := sim.NewKernel(1)
	fs := New(k, quiet())
	d := fs.Describe()
	if d.Name != "/lus/grand" || d.OSTs != 16 || d.StripeCount != 4 {
		t.Fatalf("Describe = %+v", d)
	}
}

// Property: striping conserves bytes and never touches more OSTs than the
// stripe count for any (offset, size).
func TestStripingConservationProperty(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := quiet()
	cfg.StripeSize = 4096
	cfg.StripeCount = 4
	fs := New(k, cfg)
	f := &File{Path: "/f", Size: 1 << 30, StripeStart: 1, StripeCount: 4}
	prop := func(off uint32, size uint16) bool {
		parts := fs.ostsFor(f, int64(off), int64(size))
		var total float64
		for _, p := range parts {
			total += p.bytes
		}
		if total != float64(size) {
			return false
		}
		return len(parts) <= 4
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReadNeverExceedsFileSize(t *testing.T) {
	k := sim.NewKernel(2)
	fs := New(k, quiet())
	prop := func(fileSize uint16, off uint16, size uint16) bool {
		ok := true
		fs.Create("/p", func(f *File) {
			fs.Write(f, 0, int64(fileSize), func(int64) {
				fs.Read(f, int64(off), int64(size), func(n int64) {
					if n < 0 || n > int64(size) {
						ok = false
					}
					if int64(off) < int64(fileSize) && n > int64(fileSize)-int64(off) {
						ok = false
					}
					if int64(off) >= int64(fileSize) && n != 0 {
						ok = false
					}
				})
			})
		})
		k.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestStripedFanoutSubmitsInStripeOrder: a striped operation charges its OSTs
// in the order the byte range first touches them, never in map order — the
// order of the Submits is the order of the OSTs' completion events when they
// land on one nanosecond. One read queued on OST A and one on OST B, then an
// equal share on each from one read striped over both: all four jobs finish
// at the same instant, A's completion event was armed before B's by the
// striped read, and so the read on A reports first, every time.
func TestStripedFanoutSubmitsInStripeOrder(t *testing.T) {
	cfg := quiet()
	cfg.StripeCount = 2
	stripe := cfg.StripeSize
	for run := 0; run < 64; run++ {
		k := sim.NewKernel(1)
		fs := New(k, cfg)
		f := fs.CreateNow("/f", 2*stripe)
		var order []string
		read := func(name string, off, size int64) {
			fs.Read(f, off, size, func(int64) { order = append(order, fmt.Sprintf("%s@%d", name, k.Now())) })
		}
		read("A", 0, stripe)
		read("B", stripe, stripe)
		read("AB", 0, 2*stripe)
		k.Run()
		at := k.Now()
		want := []string{fmt.Sprintf("A@%d", at), fmt.Sprintf("B@%d", at), fmt.Sprintf("AB@%d", at)}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("run %d: reads completed as %v, want %v", run, order, want)
		}
	}
}
