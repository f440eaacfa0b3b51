package live

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
)

// pos is one event of a topic's delivery order.
type pos struct {
	part int
	off  uint64
}

// naiveOrder is the delivery order written out event by event: visit the
// partitions round-robin from turn, take up to prefetch events of each, and
// stop after a whole round that took nothing. It also returns the partition
// after the last one that gave events: where a reader's turn stands after.
func naiveOrder(lens, next []uint64, turn, prefetch int) ([]pos, int) {
	next = append([]uint64(nil), next...)
	var out []pos
	after := turn
	for idle := 0; idle < len(lens); turn = (turn + 1) % len(lens) {
		took := 0
		for ; took < prefetch && next[turn] < lens[turn]; took++ {
			out = append(out, pos{turn, next[turn]})
			next[turn]++
		}
		if took == 0 {
			idle++
		} else {
			idle, after = 0, (turn+1)%len(lens)
		}
	}
	return out, after
}

// expand lists the events of chunks in order.
func expand(chunks []mofka.Chunk) []pos {
	var out []pos
	for _, c := range chunks {
		for i := 0; i < c.N; i++ {
			out = append(out, pos{c.Part, c.From + uint64(i)})
		}
	}
	return out
}

// samePositions fails unless got is want, naming the first difference.
func samePositions(t *testing.T, what string, got, want []pos) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d is %v, want %v", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", what, len(got), len(want))
	}
}

// TestOneDeliveryOrder: a topic's partitions grow unevenly — one stays empty,
// one lags far behind, one grows a whole chunk at a time and so is often
// read up when its turn comes — while two monitors sweep at random points,
// one from the start and one from committed cursors that are not
// chunk-aligned, and a consumer drains at random points. The consumer
// (Drain, Scan) and ChunksFrom give the naive round-robin model's order;
// each monitor applies exactly ChunksFrom's order of the final log from
// where it started; and the one that started at zero ends with
// ReplayBroker's Summary, anomalies included.
func TestOneDeliveryOrder(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkOneDeliveryOrder(t, seed) })
	}
}

func checkOneDeliveryOrder(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	b := mofka.NewStandaloneBroker()
	busy := func(most int) func() int { return func() int { return rng.Intn(most + 1) } }
	empty := func() int { return 0 }
	burst := func() int {
		if rng.Intn(4) == 0 {
			return chunk
		}
		return 0
	}
	// Executions feed the straggler detector, warnings the streak detector;
	// per partition, how many events a round appends. The last partition of
	// executions lags far behind; warnings has none that lags, so its
	// rotation comes round.
	shapes := map[string][]func() int{
		provenance.TopicExecutions: {busy(180), empty, burst, busy(2)},
		provenance.TopicWarnings:   {busy(300), burst, empty},
	}
	topics := []string{provenance.TopicExecutions, provenance.TopicWarnings}
	tps := map[string]*mofka.Topic{}
	for _, name := range topics {
		tp, err := b.CreateTopic(mofka.TopicConfig{Name: name, Partitions: len(shapes[name])})
		if err != nil {
			t.Fatal(err)
		}
		tps[name] = tp
	}
	n := 0
	grow := func() {
		for _, name := range topics {
			for part, count := range shapes[name] {
				p, err := tps[name].Partition(part)
				if err != nil {
					t.Fatal(err)
				}
				var metas, datas [][]byte
				for range count() {
					n++
					start := float64(n) * 0.05
					if name == provenance.TopicWarnings {
						metas = append(metas, provenance.AppendWarning(nil, dask.Warning{Kind: dask.WarnEventLoop,
							Worker: fmt.Sprintf("w%d", n%3), At: sim.Seconds(start), Duration: sim.Seconds(2)}))
					} else {
						dur := 1 + 0.01*float64(n%13)
						if rng.Intn(60) == 0 {
							dur = 30 // a straggler
						}
						metas = append(metas, exec(fmt.Sprintf("load-%05d", n), fmt.Sprintf("w%d", n%4), start, start+dur).Encode())
					}
					datas = append(datas, nil)
				}
				if len(metas) > 0 {
					if err := p.Append(metas, datas); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	lengths := func(tp *mofka.Topic) []uint64 {
		lens := make([]uint64, tp.Partitions())
		for part := range lens {
			p, _ := tp.Partition(part)
			lens[part] = p.Length()
		}
		return lens
	}

	// A consumer drained at random points reads what the model gives from
	// where the last drain left it.
	type reading struct {
		c    *mofka.Consumer
		next []uint64
		turn int
	}
	readings := map[string]*reading{}
	for _, name := range topics {
		c, _ := tps[name].NewConsumer(mofka.ConsumerOptions{})
		readings[name] = &reading{c: c, next: make([]uint64, tps[name].Partitions())}
	}
	drain := func() {
		for _, name := range topics {
			r := readings[name]
			lens := lengths(tps[name])
			want, after := naiveOrder(lens, r.next, r.turn, mofka.ConsumerChunk)
			evs, err := r.c.Drain()
			if err != nil {
				t.Fatal(err)
			}
			var got []pos
			for _, ev := range evs {
				got = append(got, pos{ev.Partition, ev.ID})
			}
			samePositions(t, fmt.Sprintf("%s: Drain from %v, partition %d up", name, r.next, r.turn), got, want)
			r.next, r.turn = lens, after
		}
	}

	type watched struct {
		m     *Monitor
		start map[string][]uint64
		took  map[string][]pos
	}
	watch := func() *watched {
		w := &watched{m: NewMonitor(b, MonitorOptions{}), start: map[string][]uint64{}, took: map[string][]pos{}}
		w.m.took = func(topic string, c mofka.Chunk) {
			w.took[topic] = append(w.took[topic], expand([]mofka.Chunk{c})...)
		}
		for _, name := range topics {
			w.start[name] = make([]uint64, tps[name].Partitions())
			for part := range w.start[name] {
				w.start[name][part] = b.LoadCursor(consumerName, name, part)
			}
		}
		w.m.Sweep() // attaches the feeds at the cursors just read
		return w
	}
	fromZero := watch()
	for range 3 {
		grow()
	}
	// Commit cursors no chunk boundary holds, for the second monitor to
	// start from.
	for _, name := range topics {
		next := make([]uint64, tps[name].Partitions())
		for part := range next {
			p, _ := tps[name].Partition(part)
			if l := p.Length(); l > 0 {
				next[part] = uint64(rng.Int63n(int64(l))) | 1 // odd: no multiple of chunk
			}
		}
		if err := tps[name].CommitCursors(consumerName, next); err != nil {
			t.Fatal(err)
		}
	}
	resumed := watch()
	for range 30 {
		grow()
		for _, w := range []*watched{fromZero, resumed} {
			if rng.Intn(2) == 0 {
				w.m.Sweep()
			}
		}
		if rng.Intn(3) == 0 {
			drain()
		}
	}
	drain()
	got := fromZero.m.Finish(nil, 100)
	resumed.m.Finish(nil, 100)

	for _, name := range topics {
		tp := tps[name]
		lens := lengths(tp)
		if slices.Min(lens) != 0 || name == provenance.TopicExecutions && lens[len(lens)-1]*10 > lens[0] {
			t.Fatalf("%s grew to %v: the test wants an empty partition and one far behind", name, lens)
		}
		zero := make([]uint64, len(lens))

		// (a) The consumer and ChunksFrom follow the model.
		want, _ := naiveOrder(lens, zero, 0, mofka.ConsumerChunk)
		c, _ := tp.NewConsumer(mofka.ConsumerOptions{})
		var scanned []pos
		for range rng.Intn(3 * mofka.ConsumerChunk) { // leave part of a chunk buffered
			if ev, ok, _ := c.Pull(); ok {
				scanned = append(scanned, pos{ev.Partition, ev.ID})
			}
		}
		if err := c.Scan(func(part int, id uint64, _ []byte) error {
			scanned = append(scanned, pos{part, id})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		samePositions(t, name+": Pull then Scan", scanned, want)
		for range 20 {
			next := make([]uint64, len(lens))
			for part := range next {
				next[part] = uint64(rng.Int63n(int64(lens[part]) + 1))
			}
			turn, prefetch := rng.Intn(len(lens)), 1+rng.Intn(300)
			want, _ := naiveOrder(lens, next, turn, prefetch)
			samePositions(t, fmt.Sprintf("%s: ChunksFrom(%v, %d, %d)", name, next, turn, prefetch),
				expand(tp.ChunksFrom(next, turn, prefetch)), want)
		}

		// (b) Each monitor applied the final log's order from its start.
		for what, w := range map[string]*watched{"from zero": fromZero, "resumed": resumed} {
			samePositions(t, fmt.Sprintf("%s: the monitor %s", name, what), w.took[name], expand(tp.ChunksFrom(w.start[name], 0, chunk)))
		}
		if reflect.DeepEqual(resumed.start[name], zero) {
			t.Fatalf("%s: the resumed monitor started at zero", name)
		}
	}

	// (c) The monitor from zero ends at the replay's Summary.
	replay := NewAggregator(AggregatorOptions{})
	if err := ReplayBroker(b, replay); err != nil {
		t.Fatal(err)
	}
	replay.SetWall(100)
	if want := replay.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("swept monitor != replay:\n%+v\nvs\n%+v", got, want)
	}
	kinds := map[string]int{}
	for _, a := range got.Anomalies {
		kinds[a.Kind]++
	}
	if kinds[AnomalyStraggler] == 0 || kinds[AnomalyEventLoopStreak] == 0 {
		t.Fatalf("anomalies by kind = %v; the test wants stragglers and streaks", kinds)
	}
}
