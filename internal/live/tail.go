package live

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"taskprov/internal/darshan"
	"taskprov/internal/mofka"
	"taskprov/internal/mofka/cluster"
	"taskprov/internal/provenance"
)

// ReplayBroker feeds every provenance event already on the broker through
// the aggregator, topic by topic, each in the order a Monitor ingests it —
// chunks round-robin across the partitions — which is the order the
// equivalence invariant is defined against.
func ReplayBroker(b *mofka.Broker, agg *Aggregator) error {
	return ReplayTopics(b, agg, provenance.AllTopics())
}

// ReplayTopics is ReplayBroker over the named topics only: each one is fed
// in the same order, to the same handlers, into the same lanes, so a
// Summary field computed from those topics alone (PhaseTopics) comes out
// bit for bit as the full replay's.
func ReplayTopics(b *mofka.Broker, agg *Aggregator, topics []string) error {
	for _, topic := range topics {
		t, err := b.OpenTopic(topic)
		if err != nil {
			continue // topic never created on this broker
		}
		c, err := t.NewConsumer(mofka.ConsumerOptions{NoData: true, Prefetch: chunk})
		if err != nil {
			return fmt.Errorf("live: replay %s: %w", topic, err)
		}
		// Scan lends the stored bytes: each event is decoded once, straight
		// from them.
		err = c.Scan(func(partition int, id uint64, metadata []byte) error {
			return ingest(agg, topic, partition, id, metadata)
		})
		if err != nil {
			return fmt.Errorf("live: replay %s: %w", topic, err)
		}
	}
	return nil
}

// ingest feeds one event to the aggregator, naming the event in the error
// when its metadata does not decode.
func ingest(agg *Aggregator, topic string, partition int, id uint64, metadata []byte) error {
	if err := agg.Ingest(topic, partition, metadata); err != nil {
		return fmt.Errorf("live: corrupt event %s[%d]/%d: %w", topic, partition, id, err)
	}
	return nil
}

// dirMetadata is the slice of the run's metadata.json the tailer needs. The
// full provenance chart lives in internal/core; parsing a projection here
// keeps live a leaf package.
type dirMetadata struct {
	Workflow    string  `json:"workflow"`
	Seed        uint64  `json:"seed"`
	WallSeconds float64 `json:"wall_seconds"`
	Platform    struct {
		Nodes int `json:"nodes"`
	} `json:"platform"`
	Dask struct {
		WorkersPerNode   int `json:"workers_per_node"`
		ThreadsPerWorker int `json:"threads_per_worker"`
	} `json:"dask_config"`
}

// ReplayDataDir builds live aggregates post-mortem from a durable Mofka data
// directory: the WAL segments replay through a fresh aggregator, and
// whatever else the directory offers (metadata.json, darshan/*.darshan) is
// folded in. Safe on the data dir of a crashed (kill -9) run: the WAL opens
// read-only and torn tails are skipped, not truncated. A sharded cluster
// directory (cluster.json + node-NN/) is merged into one view first, the way
// perfrecup.LoadEventLog opens it.
func ReplayDataDir(dir string, opts AggregatorOptions) (Summary, error) {
	b, err := cluster.OpenLog(dir)
	if err != nil {
		return Summary{}, fmt.Errorf("live: open %s: %w", dir, err)
	}
	agg := NewAggregator(opts)
	if err := ReplayBroker(b, agg); err != nil {
		return Summary{}, err
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "metadata.json")); err == nil {
		var meta dirMetadata
		if err := json.Unmarshal(raw, &meta); err != nil {
			return Summary{}, fmt.Errorf("live: %s/metadata.json: %w", dir, err)
		}
		slots := meta.Platform.Nodes * meta.Dask.WorkersPerNode * meta.Dask.ThreadsPerWorker
		agg.SetMeta(meta.Workflow, meta.Seed, slots)
		agg.SetWall(meta.WallSeconds)
	}
	logs, err := darshan.ReadDir(filepath.Join(dir, "darshan"))
	if err != nil {
		return Summary{}, fmt.Errorf("live: %w", err)
	}
	for _, l := range logs {
		agg.IngestDarshanLog(l)
	}
	return agg.Snapshot(), nil
}

// TailOptions configures a tailer.
type TailOptions struct {
	// Interval between refreshes. Default 1s.
	Interval time.Duration
	// Logf receives one-line refresh failures (transient while a run is
	// mid-write).
	Logf func(format string, args ...any)
}

func (o TailOptions) withDefaults() TailOptions {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	return o
}

// WALTailer follows a durable data dir as it grows by rebuilding the
// aggregates from the WAL on every refresh. Each refresh is a full replay —
// O(log size) per tick, the price of staying read-only against a directory
// another process is actively writing (no shared cursor state, no risk of
// perturbing the run). For the paper-scale logs this is milliseconds; for
// production-scale logs attach to the broker with a RemoteTailer instead. A
// sharded cluster directory tails the same way (see ReplayDataDir).
type WALTailer struct {
	dir  string
	opts TailOptions

	mu   sync.Mutex
	last Summary
	seen int // anomalies already forwarded to subscribers
	subs []chan Anomaly

	poller
}

// TailWAL starts tailing a data dir. The first refresh happens synchronously
// so the returned tailer always serves a real snapshot (the refresh error,
// if any, is surfaced; a dir mid-first-write may legitimately be empty).
func TailWAL(dir string, opts TailOptions) (*WALTailer, error) {
	if !cluster.IsLogDir(dir) {
		return nil, fmt.Errorf("live: %s is not a Mofka data dir", dir)
	}
	t := &WALTailer{dir: dir, opts: opts.withDefaults()}
	if err := t.Refresh(); err != nil {
		return nil, err
	}
	t.start(t.opts, "tail "+dir, t.Refresh)
	return t, nil
}

// Refresh rebuilds the snapshot from the directory now. Anomalies beyond as
// many as were already forwarded go to subscribers (the list is sorted by
// time, and a log that only appends mostly adds later findings).
func (t *WALTailer) Refresh() error {
	snap, err := ReplayDataDir(t.dir, AggregatorOptions{})
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		return err
	}
	t.last = snap
	for ; t.seen < len(snap.Anomalies); t.seen++ {
		for _, ch := range t.subs {
			select {
			case ch <- snap.Anomalies[t.seen]:
			default:
			}
		}
	}
	return nil
}

// Snapshot returns the most recent successful rebuild.
func (t *WALTailer) Snapshot() Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

// SubscribeAnomalies implements Source.
func (t *WALTailer) SubscribeAnomalies() (<-chan Anomaly, func()) {
	ch := make(chan Anomaly, 64)
	t.mu.Lock()
	t.subs = append(t.subs, ch)
	t.mu.Unlock()
	return ch, func() {
		t.mu.Lock()
		t.subs = slices.DeleteFunc(t.subs, func(c chan Anomaly) bool { return c == ch })
		t.mu.Unlock()
	}
}

// RemoteTailer attaches to a running log service — a mofkad broker or cluster
// gateway over Mercury RPC, as taskprov watch -broker does — and pulls
// provenance topics incrementally into a persistent aggregator.
type RemoteTailer struct {
	remote mofka.Service
	opts   TailOptions
	agg    *Aggregator

	next map[laneKey]uint64

	poller
}

// TailRemote starts tailing a log service. One synchronous sweep runs before
// returning so the first snapshot is already populated.
func TailRemote(r mofka.Service, opts TailOptions) (*RemoteTailer, error) {
	t := &RemoteTailer{
		remote: r,
		opts:   opts.withDefaults(),
		agg:    NewAggregator(AggregatorOptions{}),
		next:   make(map[laneKey]uint64),
	}
	if err := t.sweep(); err != nil {
		return nil, err
	}
	t.start(t.opts, "remote tail", t.sweep)
	return t, nil
}

// sweep pulls everything new from every provenance topic on the remote.
func (t *RemoteTailer) sweep() error {
	topics, err := t.remote.Topics()
	if err != nil {
		return err
	}
	for _, topic := range topics {
		if !slices.Contains(provenance.AllTopics(), topic) {
			continue
		}
		parts, _, err := t.remote.TopicInfo(topic)
		if err != nil {
			return err
		}
		for p := 0; p < parts; p++ {
			k := laneKey{topic, p}
			for {
				evs, err := t.remote.Pull(topic, p, t.next[k], 256, false)
				if err != nil {
					return err
				}
				if len(evs) == 0 {
					break
				}
				for _, ev := range evs {
					// Step past the event first: one that does not decode
					// is reported once, not on every sweep.
					t.next[k] = ev.ID + 1
					if err := ingest(t.agg, topic, p, ev.ID, ev.Metadata); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// Snapshot implements Source.
func (t *RemoteTailer) Snapshot() Summary { return t.agg.Snapshot() }

// SubscribeAnomalies implements Source.
func (t *RemoteTailer) SubscribeAnomalies() (<-chan Anomaly, func()) {
	return t.agg.SubscribeAnomalies()
}

// poller is a tailer's host-time refresh: the tailers watch a run from
// outside it, on no clock of the run's.
type poller struct {
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// start calls refresh every opts.Interval on a goroutine of its own, logging
// its failures under what, until Stop.
func (p *poller) start(opts TailOptions, what string, refresh func() error) {
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		tick := time.NewTicker(opts.Interval)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				if err := refresh(); err != nil && opts.Logf != nil {
					opts.Logf("live: %s: %v", what, err)
				}
			}
		}
	}()
}

// Stop halts the refreshes.
func (p *poller) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}
