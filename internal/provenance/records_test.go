package provenance

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/sim"
)

// stealBroker returns a broker whose steals topic holds n events over three
// partitions, and a function appending n more.
func stealBroker(t *testing.T, n int) (*mofka.Broker, func(n int)) {
	t.Helper()
	b := mofka.NewStandaloneBroker()
	topic, err := b.CreateTopic(mofka.TopicConfig{Name: TopicSteals, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := topic.NewProducer(mofka.ProducerOptions{BatchSize: 7})
	pushed := 0
	push := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ev := dask.StealEvent{Key: dask.TaskKey(fmt.Sprintf("k-%03d", pushed)), Victim: "v", Thief: "t", At: sim.Time(pushed) * sim.Milliseconds(1)}
			pushed++
			if err := p.PushRaw(AppendSteal(nil, ev), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	push(n)
	return b, push
}

// TestRecordsReuseUntilAppend: a second read of an unchanged topic decodes
// nothing and returns the first read's backing array; once the topic has
// grown, the next read returns every event.
func TestRecordsReuseUntilAppend(t *testing.T) {
	b, push := stealBroker(t, 200)
	recs := NewRecords(b)
	first, err := recs.Steals()
	if err != nil || len(first) != 200 {
		t.Fatalf("first read: %d, %v", len(first), err)
	}
	var again []dask.StealEvent
	if allocs := testing.AllocsPerRun(10, func() { again, err = recs.Steals() }); allocs != 0 {
		t.Errorf("a warm read allocates %v times, want 0", allocs)
	}
	if err != nil || len(again) != len(first) || &again[0] != &first[0] {
		t.Fatalf("warm read: %d records, %v, same array %v", len(again), err, &again[0] == &first[0])
	}
	push(50)
	grown, err := recs.Steals()
	if err != nil || len(grown) != 250 {
		t.Fatalf("read after append: %d, %v", len(grown), err)
	}
	keys := map[dask.TaskKey]bool{}
	for _, s := range grown {
		keys[s.Key] = true
	}
	if len(keys) != 250 || !keys["k-249"] {
		t.Fatalf("read after append has %d distinct keys", len(keys))
	}
}

// TestRecordsReleasedWhenUnheld: records no reader holds any more are
// reclaimed by the garbage collector, and the next read decodes them again.
func TestRecordsReleasedWhenUnheld(t *testing.T) {
	b, _ := stealBroker(t, 200)
	recs := NewRecords(b)
	if _, err := recs.Steals(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if recs.steals.first.Value() != nil {
		t.Fatal("records no reader holds survived a collection")
	}
	again, err := recs.Steals()
	if err != nil || len(again) != 200 {
		t.Fatalf("read after collection: %d, %v", len(again), err)
	}
}

// TestRecordsMissingTopic: a topic the broker lacks is mofka.ErrNoTopic.
func TestRecordsMissingTopic(t *testing.T) {
	b, _ := stealBroker(t, 1)
	if _, err := NewRecords(b).Speculation(); !errors.Is(err, mofka.ErrNoTopic) {
		t.Fatalf("missing topic: %v, want ErrNoTopic", err)
	}
}

// TestRecordsConcurrentReads: two goroutines reading the same Records get
// the same records (run it under -race).
func TestRecordsConcurrentReads(t *testing.T) {
	b, _ := stealBroker(t, 300)
	recs := NewRecords(b)
	var wg sync.WaitGroup
	got := make([][]dask.StealEvent, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s, err := recs.Steals()
				if err != nil || len(s) != 300 {
					t.Errorf("goroutine %d: %d records, %v", g, len(s), err)
					return
				}
				got[g] = s
			}
		}()
	}
	wg.Wait()
	if len(got[0]) == 0 || &got[0][0] != &got[1][0] {
		t.Fatal("concurrent readers got different arrays")
	}
}
