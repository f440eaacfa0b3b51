package mofka

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"taskprov/internal/mochi/bedrock"
	"taskprov/internal/mofka/wal"
)

// Options configures a broker's durable backend. The zero value (no DataDir)
// is a purely in-memory broker, as before.
type Options struct {
	// DataDir roots the on-disk event log. Layout:
	//
	//	<DataDir>/topics/<name>/topic.json      topic configuration
	//	<DataDir>/topics/<name>/p<NNNN>/*.seg   per-partition WAL segments
	//	<DataDir>/cursors.json                  committed consumer cursors
	//
	// Opening a broker on an existing DataDir recovers every topic, event,
	// and cursor persisted there (truncating torn segment tails left by a
	// crash).
	DataDir string
	// WAL tunes the per-partition logs (segment size, fsync policy,
	// retention). Zero values take the wal package defaults.
	WAL wal.Options
	// ReadOnly opens the data directory for post-mortem analysis: events
	// replay into memory, but nothing on disk is appended, truncated, or
	// rewritten, and cursor commits stay in-memory only.
	ReadOnly bool
}

// NewDurableBroker builds a standalone broker whose partitions are backed by
// the segmented event log under opts.DataDir. If the directory already holds
// a log (from a previous run, clean or crashed), its topics, events, and
// consumer cursors are recovered before the broker is returned.
func NewDurableBroker(opts Options) (*Broker, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("mofka: NewDurableBroker needs Options.DataDir")
	}
	b := NewStandaloneBroker()
	if err := b.attachDataDir(opts); err != nil {
		return nil, err
	}
	return b, nil
}

// NewBrokerOptions builds a broker on a bedrock deployment's services, with
// an optional durable backend — the constructor cmd/mofkad uses.
func NewBrokerOptions(dep *bedrock.Deployment, opts Options) (*Broker, error) {
	b := NewBroker(dep)
	if opts.DataDir != "" {
		if err := b.attachDataDir(opts); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// OpenPostMortem opens a data directory for analysis without a live broker
// process: all topics and cursors replay into an in-memory broker, and the
// on-disk log is never modified. This is PERFRECUP's post-mortem loading
// mode.
func OpenPostMortem(dataDir string) (*Broker, error) {
	return NewDurableBroker(Options{DataDir: dataDir, ReadOnly: true})
}

// IsDataDir reports whether dir looks like a durable broker data directory.
func IsDataDir(dir string) bool {
	if st, err := os.Stat(filepath.Join(dir, "topics")); err == nil && st.IsDir() {
		return true
	}
	_, err := os.Stat(filepath.Join(dir, "cursors.json"))
	return err == nil
}

func topicDir(dataDir, name string) string {
	return filepath.Join(dataDir, "topics", name)
}

func partitionDir(dataDir, name string, index int) string {
	return filepath.Join(topicDir(dataDir, name), fmt.Sprintf("p%04d", index))
}

// attachDataDir wires the durable backend into a freshly built broker:
// loads persisted cursors, recovers every topic directory (config + WAL
// replay), and leaves writable logs attached for subsequent appends.
func (b *Broker) attachDataDir(opts Options) error {
	b.dataDir = opts.DataDir
	b.readOnly = opts.ReadOnly
	b.walOpts = opts.WAL
	b.walOpts.ReadOnly = opts.ReadOnly

	if !opts.ReadOnly {
		if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
			return fmt.Errorf("mofka: data dir: %w", err)
		}
	}
	cs, err := wal.OpenCursorStore(filepath.Join(opts.DataDir, "cursors.json"))
	if err != nil {
		return err
	}
	for key, next := range cs.All() {
		val, err := json.Marshal(next)
		if err != nil {
			return fmt.Errorf("mofka: recover cursor %s: %w", key, err)
		}
		b.meta.Put("cursor/"+key, val)
	}
	if !opts.ReadOnly {
		b.cursors = cs
	}

	topicsRoot := filepath.Join(opts.DataDir, "topics")
	entries, err := os.ReadDir(topicsRoot)
	if os.IsNotExist(err) {
		return nil // fresh data dir
	}
	if err != nil {
		return fmt.Errorf("mofka: scan topics: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if err := b.recoverTopic(e.Name()); err != nil {
			return err
		}
	}
	return nil
}

// recoverTopic rebuilds one topic from its on-disk directory: the config
// comes from topic.json, then each partition's WAL replays into the
// in-memory stores so the consumer API serves exactly the persisted stream.
func (b *Broker) recoverTopic(name string) error {
	cfgBytes, err := os.ReadFile(filepath.Join(topicDir(b.dataDir, name), "topic.json"))
	if err != nil {
		return fmt.Errorf("mofka: recover topic %s: %w", name, err)
	}
	var cfg TopicConfig
	if err := json.Unmarshal(cfgBytes, &cfg); err != nil {
		return fmt.Errorf("mofka: recover topic %s: corrupt topic.json: %w", name, err)
	}
	if cfg.Name != name {
		return fmt.Errorf("mofka: topic dir %q holds config for %q", name, cfg.Name)
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}

	t := &Topic{broker: b, cfg: cfg}
	for i := 0; i < cfg.Partitions; i++ {
		p := &Partition{
			topic: t,
			index: i,
			docs:  b.meta.Collection(fmt.Sprintf("topic/%s/p%04d", cfg.Name, i)),
		}
		p.cond = sync.NewCond(&p.mu)
		l, err := wal.Open(partitionDir(b.dataDir, name, i), b.walOpts)
		if err != nil {
			return fmt.Errorf("mofka: recover %s[%d]: %w", name, i, err)
		}
		var ingestErr error
		replayErr := l.Replay(0, func(_ uint64, rec wal.Record) bool {
			ingestErr = p.ingest(rec.Meta, rec.Data)
			return ingestErr == nil
		})
		if replayErr == nil {
			replayErr = ingestErr
		}
		if replayErr != nil {
			err := fmt.Errorf("mofka: replay %s[%d]: %w", name, i, replayErr)
			return errors.Join(err, l.Close())
		}
		if b.readOnly {
			// A read-only recovery never appends, but a failed close still
			// signals something wrong with the log files — surface it.
			if err := l.Close(); err != nil {
				return fmt.Errorf("mofka: close recovered log %s[%d]: %w", name, i, err)
			}
		} else {
			p.log = l
		}
		t.partitions = append(t.partitions, p)
	}
	b.meta.Put("topics/"+cfg.Name, cfgBytes)
	b.topics[cfg.Name] = t
	return nil
}

// ingest publishes one already-durable event into the in-memory stores
// (the WAL-replay path; no WAL append, no broadcast needed at recovery).
func (p *Partition) ingest(meta, data []byte) error {
	if err := checkMetadata(meta); err != nil {
		return err
	}
	var region uint64
	if len(data) > 0 {
		region = uint64(p.topic.broker.data.CreateWrite(data))
	}
	size := int64(len(data))
	doc := appendEnvelope(make([]byte, 0, envelopeLen(meta, region, 0, size)), meta, region, 0, size)
	p.mu.Lock()
	p.docs.StoreBatch([][]byte{doc})
	p.length++
	p.mu.Unlock()
	return nil
}

// persistTopic writes a new topic's config and opens its partition logs.
// Called under b.mu by CreateTopic on durable brokers.
func (b *Broker) persistTopic(t *Topic, cfgJSON []byte) error {
	name := t.cfg.Name
	if strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("%w: topic name %q not usable as a directory", ErrInvalidEvent, name)
	}
	dir := topicDir(b.dataDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mofka: topic dir %s: %w", name, err)
	}
	if err := atomicWriteFile(filepath.Join(dir, "topic.json"), cfgJSON); err != nil {
		return fmt.Errorf("mofka: persist topic %s: %w", name, err)
	}
	for _, p := range t.partitions {
		l, err := wal.Open(partitionDir(b.dataDir, name, p.index), b.walOpts)
		if err != nil {
			return fmt.Errorf("mofka: open wal %s[%d]: %w", name, p.index, err)
		}
		p.log = l
	}
	return nil
}

// atomicWriteFile installs data at path via temp file + fsync + rename.
func atomicWriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.Remove(tmp.Name()) }() // no-op after the rename
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
