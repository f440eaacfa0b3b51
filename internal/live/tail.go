package live

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"taskprov/internal/darshan"
	"taskprov/internal/mofka"
	"taskprov/internal/mofka/cluster"
	"taskprov/internal/provenance"
)

// ReplayBroker feeds every provenance event already on the broker through
// the aggregator, walking each topic partition by partition in offset order
// — the canonical deterministic order the equivalence invariant is defined
// against.
func ReplayBroker(b *mofka.Broker, agg *Aggregator) error {
	for _, topic := range provenance.AllTopics() {
		t, err := b.OpenTopic(topic)
		if err != nil {
			continue // topic never created on this broker
		}
		for p := 0; p < t.Partitions(); p++ {
			c, err := t.NewConsumer(mofka.ConsumerOptions{NoData: true, Partitions: []int{p}})
			if err != nil {
				return fmt.Errorf("live: replay %s[%d]: %w", topic, p, err)
			}
			// Scan lends the stored bytes: each event is decoded once,
			// straight from them.
			err = c.Scan(func(partition int, id uint64, metadata []byte) error {
				return ingest(agg, topic, partition, id, metadata)
			})
			if err != nil {
				return fmt.Errorf("live: replay %s[%d]: %w", topic, p, err)
			}
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
	Job         struct {
		Nodes            int `json:"nodes"`
		WorkersPerNode   int `json:"workers_per_node"`
		ThreadsPerWorker int `json:"threads_per_worker"`
	} `json:"job"`
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
		slots := meta.Job.Nodes * meta.Job.WorkersPerNode * meta.Job.ThreadsPerWorker
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
	// Aggregator tunes windows and detectors.
	Aggregator AggregatorOptions
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

	mu    sync.Mutex
	last  Summary
	seen  int // anomalies already forwarded to subscribers
	subs  []chan Anomaly
	ready bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// TailWAL starts tailing a data dir. The first refresh happens synchronously
// so the returned tailer always serves a real snapshot (the refresh error,
// if any, is surfaced; a dir mid-first-write may legitimately be empty).
func TailWAL(dir string, opts TailOptions) (*WALTailer, error) {
	if !cluster.IsLogDir(dir) {
		return nil, fmt.Errorf("live: %s is not a Mofka data dir", dir)
	}
	t := &WALTailer{
		dir:  dir,
		opts: opts.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if err := t.Refresh(); err != nil {
		return nil, err
	}
	go t.loop()
	return t, nil
}

func (t *WALTailer) loop() {
	defer close(t.done)
	tick := time.NewTicker(t.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			if err := t.Refresh(); err != nil && t.opts.Logf != nil {
				t.opts.Logf("live: tail %s: %v", t.dir, err)
			}
		}
	}
}

// Refresh rebuilds the snapshot from the directory now. Anomalies beyond the
// ones already forwarded go to subscribers (the replay is deterministic, so
// the anomaly list is prefix-stable while the log only appends).
func (t *WALTailer) Refresh() error {
	snap, err := ReplayDataDir(t.dir, t.opts.Aggregator)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		return err
	}
	t.last = snap
	t.ready = true
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
func (t *WALTailer) SubscribeAnomalies() <-chan Anomaly {
	ch := make(chan Anomaly, 64)
	t.mu.Lock()
	t.subs = append(t.subs, ch)
	t.mu.Unlock()
	return ch
}

// Stop halts the refresh loop.
func (t *WALTailer) Stop() {
	t.stopOnce.Do(func() { close(t.stop) })
	<-t.done
}

// RemoteTailer attaches to a running log service — a mofkad broker or cluster
// gateway over Mercury RPC, as taskprov watch -broker does — and pulls
// provenance topics incrementally into a persistent aggregator.
type RemoteTailer struct {
	remote mofka.Service
	opts   TailOptions
	agg    *Aggregator

	next map[laneKey]uint64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// TailRemote starts tailing a log service. One synchronous sweep runs before
// returning so the first snapshot is already populated.
func TailRemote(r mofka.Service, opts TailOptions) (*RemoteTailer, error) {
	t := &RemoteTailer{
		remote: r,
		opts:   opts.withDefaults(),
		agg:    NewAggregator(opts.Aggregator),
		next:   make(map[laneKey]uint64),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if err := t.sweep(); err != nil {
		return nil, err
	}
	go t.loop()
	return t, nil
}

// sweep pulls everything new from every provenance topic on the remote.
func (t *RemoteTailer) sweep() error {
	topics, err := t.remote.Topics()
	if err != nil {
		return err
	}
	want := make(map[string]bool, len(provenance.AllTopics()))
	for _, n := range provenance.AllTopics() {
		want[n] = true
	}
	for _, topic := range topics {
		if !want[topic] {
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

func (t *RemoteTailer) loop() {
	defer close(t.done)
	tick := time.NewTicker(t.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			if err := t.sweep(); err != nil && t.opts.Logf != nil {
				t.opts.Logf("live: remote tail: %v", err)
			}
		}
	}
}

// Snapshot implements Source.
func (t *RemoteTailer) Snapshot() Summary { return t.agg.Snapshot() }

// SubscribeAnomalies implements Source.
func (t *RemoteTailer) SubscribeAnomalies() <-chan Anomaly { return t.agg.SubscribeAnomalies() }

// Stop halts the sweep loop.
func (t *RemoteTailer) Stop() {
	t.stopOnce.Do(func() { close(t.stop) })
	<-t.done
}
