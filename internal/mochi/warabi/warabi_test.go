package warabi

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestCreateWriteReadRoundTrip(t *testing.T) {
	tg := NewTarget("t0")
	id := tg.CreateWrite([]byte("0123abcd89abcdef"))
	got, err := tg.Read(id, 4, 4)
	if err != nil || string(got) != "abcd" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	all, err := tg.Read(id, 0, 16)
	if err != nil || len(all) != 16 {
		t.Fatalf("full Read len = %d, %v", len(all), err)
	}
}

func TestCreateWriteFastPath(t *testing.T) {
	tg := NewTarget("t0")
	id := tg.CreateWrite([]byte("payload"))
	got, err := tg.Read(id, 0, 7)
	if err != nil || string(got) != "payload" {
		t.Fatalf("Read = %q, %v", got, err)
	}
}

func TestBoundsChecks(t *testing.T) {
	tg := NewTarget("t0")
	id := tg.CreateWrite(make([]byte, 8))
	if _, err := tg.Read(id, -1, 2); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("negative read err = %v", err)
	}
	if _, err := tg.Read(id, 0, 9); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("long read err = %v", err)
	}
}

func TestUnknownRegion(t *testing.T) {
	tg := NewTarget("t0")
	if _, err := tg.Read(99, 0, 1); !errors.Is(err, ErrNoRegion) {
		t.Fatalf("err = %v", err)
	}
	if err := tg.Destroy(99); !errors.Is(err, ErrNoRegion) {
		t.Fatalf("err = %v", err)
	}
}

func TestDestroyReleases(t *testing.T) {
	tg := NewTarget("t0")
	id := tg.CreateWrite(make([]byte, 4))
	if err := tg.Destroy(id); err != nil {
		t.Fatal(err)
	}
	if _, err := tg.Read(id, 0, 1); !errors.Is(err, ErrNoRegion) {
		t.Fatalf("read after destroy: %v", err)
	}
	n, _, _ := tg.Stats()
	if n != 0 {
		t.Fatalf("regions after destroy = %d", n)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	tg := NewTarget("t0")
	id := tg.CreateWrite([]byte("immutable"))
	got, _ := tg.Read(id, 0, 9)
	got[0] = 'X'
	again, _ := tg.Read(id, 0, 9)
	if string(again) != "immutable" {
		t.Fatalf("region aliased by returned slice: %q", again)
	}
}

func TestStatsAccounting(t *testing.T) {
	tg := NewTarget("t0")
	id := tg.CreateWrite(bytes.Repeat([]byte{1}, 100))
	if _, err := tg.Read(id, 0, 40); err != nil {
		t.Fatal(err)
	}
	n, w, r := tg.Stats()
	if n != 1 || w != 100 || r != 40 {
		t.Fatalf("Stats = %d regions, %d written, %d read", n, w, r)
	}
}

func TestIDsMonotonic(t *testing.T) {
	tg := NewTarget("t0")
	a := tg.CreateWrite(make([]byte, 10))
	b := tg.CreateWrite(make([]byte, 20))
	if b <= a {
		t.Fatalf("IDs not monotonic: %d then %d", a, b)
	}
}

func TestProviderTargets(t *testing.T) {
	p := NewProvider()
	a := p.Target("x")
	if p.Target("x") != a {
		t.Fatal("Target not idempotent")
	}
	if p.Target("y") == a {
		t.Fatal("two names share one target")
	}
}

func TestConcurrentRegionOps(t *testing.T) {
	tg := NewTarget("conc")
	var wg sync.WaitGroup
	ids := make([]RegionID, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			data := []byte(fmt.Sprintf("goroutine-%d", g))
			id := tg.CreateWrite(data)
			ids[g] = id
			for i := 0; i < 100; i++ {
				got, err := tg.Read(id, 0, int64(len(data)))
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("concurrent read mismatch: %q %v", got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	seen := map[RegionID]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate region ID %d handed out", id)
		}
		seen[id] = true
	}
}
