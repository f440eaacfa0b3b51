package warabi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestCreateWriteFastPath(t *testing.T) {
	tg := NewTarget("t0")
	tg.CreateWrite([]byte("payload"))
	if n, w := tg.Stats(); n != 1 || w != 7 {
		t.Fatalf("Stats = %d regions, %d written", n, w)
	}
}

func TestUnknownRegion(t *testing.T) {
	tg := NewTarget("t0")
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
	if err := tg.Destroy(id); !errors.Is(err, ErrNoRegion) {
		t.Fatalf("destroy after destroy: %v", err)
	}
	n, _ := tg.Stats()
	if n != 0 {
		t.Fatalf("regions after destroy = %d", n)
	}
}

func TestStatsAccounting(t *testing.T) {
	tg := NewTarget("t0")
	tg.CreateWrite(make([]byte, 100))
	id := tg.CreateWrite(make([]byte, 40))
	if err := tg.Destroy(id); err != nil {
		t.Fatal(err)
	}
	if n, w := tg.Stats(); n != 1 || w != 140 {
		t.Fatalf("Stats = %d regions, %d written", n, w)
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
			ids[g] = tg.CreateWrite([]byte(fmt.Sprintf("goroutine-%d", g)))
			for i := 0; i < 100; i++ {
				if err := tg.Destroy(tg.CreateWrite(make([]byte, 1))); err != nil {
					t.Errorf("concurrent destroy: %v", err)
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
	if n, _ := tg.Stats(); n != len(ids) {
		t.Fatalf("%d regions live, want %d", n, len(ids))
	}
}
