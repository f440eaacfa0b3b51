package mofka

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

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
	// WAL tunes the per-partition logs (the fsync policy). Zero values take
	// the wal package defaults.
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
// loads persisted cursors, recovers every topic directory (config + one pass
// over each partition's WAL), and leaves writable logs attached for
// subsequent appends.
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

	names, err := topicDirs(opts.DataDir)
	if err != nil {
		return err
	}
	var parts []*Partition
	for _, name := range names {
		cfg, cfgBytes, err := readTopicConfig(opts.DataDir, name)
		if err != nil {
			return err
		}
		t := b.buildTopic(cfg)
		parts = append(parts, t.partitions...)
		b.meta.Put("topics/"+cfg.Name, cfgBytes)
		b.topics[cfg.Name] = t
	}
	err = inParallel(len(parts), func(i int) error {
		p := parts[i]
		segs, err := wal.ListSegments(partitionDir(opts.DataDir, p.topic.cfg.Name, p.index))
		if err != nil {
			return err
		}
		l, err := p.recoverFrom(segs, b.walOpts)
		if err != nil {
			return err
		}
		if !b.readOnly {
			p.log = l
			return nil
		}
		// A read-only recovery never appends, but a failed close still
		// signals something wrong with the log files — surface it.
		if err := l.Close(); err != nil {
			return fmt.Errorf("mofka: close recovered log %s[%d]: %w", p.topic.cfg.Name, p.index, err)
		}
		return nil
	})
	if err != nil {
		for _, p := range parts {
			if p.log != nil {
				_ = p.log.Close() // the recovery failure is the error that matters
			}
		}
	}
	return err
}

// topicDirs lists the topic directories of a data dir in name order; a data
// dir without a topics directory holds none.
func topicDirs(dataDir string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(dataDir, "topics"))
	if os.IsNotExist(err) {
		return nil, nil // fresh data dir
	}
	if err != nil {
		return nil, fmt.Errorf("mofka: scan topics: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// readTopicConfig loads and checks one topic directory's topic.json.
func readTopicConfig(dataDir, name string) (TopicConfig, []byte, error) {
	cfgBytes, err := os.ReadFile(filepath.Join(topicDir(dataDir, name), "topic.json"))
	if err != nil {
		return TopicConfig{}, nil, fmt.Errorf("mofka: recover topic %s: %w", name, err)
	}
	var cfg TopicConfig
	if err := json.Unmarshal(cfgBytes, &cfg); err != nil {
		return TopicConfig{}, nil, fmt.Errorf("mofka: recover topic %s: corrupt topic.json: %w", name, err)
	}
	if cfg.Name != name {
		return TopicConfig{}, nil, fmt.Errorf("mofka: topic dir %q holds config for %q", name, cfg.Name)
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	return cfg, cfgBytes, nil
}

// recoverFrom rebuilds the partition from the log segs lists, so the consumer
// API serves exactly the persisted stream: the log's one validating pass over
// its segments hands the records over by the batch, and each batch goes
// through admit, which keeps the metadata where the log read it. It returns
// the opened log.
func (p *Partition) recoverFrom(segs wal.Segments, opts wal.Options) (*wal.Log, error) {
	var metas [][]byte
	l, err := wal.OpenReplay(segs, opts, func(recs []wal.Record) error {
		metas = metas[:0]
		for _, r := range recs {
			metas = append(metas, r.Meta)
		}
		_, err := p.admit(metas, true)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("mofka: recover %s[%d]: %w", p.topic.cfg.Name, p.index, err)
	}
	return l, nil
}

// inParallel runs job(0) … job(n-1) on up to GOMAXPROCS goroutines and
// returns the failure with the lowest index. Jobs start in index order and
// none starts once one has failed, so which failure that is does not depend
// on scheduling.
func inParallel(n int, job func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = job(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// OpenPostMortemReplicas opens the data directories of several brokers that
// hold replicas of the same partitions and merges them into one in-memory
// view, without modifying anything on disk. Every replica log is validated
// in full — interior corruption in any of them fails the load — but only one
// per partition is published: the longest (replica logs are
// prefix-consistent, so it holds every event of the others), the earliest
// directory winning a tie. Each replica's segments are read once, and only
// the published one's are kept (see recoverLongest). A topic's configuration
// comes from the first directory holding it, and a directory that declares
// the topic with another partition count fails the load. For every consumer
// cursor the maximum across the directories' cursor stores wins.
func OpenPostMortemReplicas(dataDirs []string) (*Broker, error) {
	view := NewStandaloneBroker()
	type replicas struct {
		part *Partition // of the view
		dirs []string   // holding the topic, in directory order
	}
	var jobs []replicas
	first := make(map[string]int) // topic → the job of its partition 0
	cursors := make(map[CursorEntry]uint64)
	for _, dir := range dataDirs {
		cs, err := wal.OpenCursorStore(filepath.Join(dir, "cursors.json"))
		if err != nil {
			return nil, err
		}
		for key, next := range cs.All() {
			if ent, ok := parseCursorKey(key); ok && next > cursors[ent] {
				cursors[ent] = next
			}
		}
		names, err := topicDirs(dir)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			cfg, _, err := readTopicConfig(dir, name)
			if err != nil {
				return nil, err
			}
			j, seen := first[name]
			if !seen {
				t, err := view.CreateTopic(cfg)
				if err != nil {
					return nil, err
				}
				j = len(jobs)
				first[name] = j
				for _, p := range t.partitions {
					jobs = append(jobs, replicas{part: p})
				}
			}
			if n := len(jobs[j].part.topic.partitions); cfg.Partitions != n {
				return nil, fmt.Errorf("mofka: topic %s has %d partitions in %s but %d in %s",
					name, n, jobs[j].dirs[0], cfg.Partitions, dir)
			}
			for i := range cfg.Partitions {
				jobs[j+i].dirs = append(jobs[j+i].dirs, dir)
			}
		}
	}

	err := inParallel(len(jobs), func(i int) error {
		return jobs[i].part.recoverLongest(jobs[i].dirs)
	})
	if err != nil {
		return nil, err
	}
	for ent, next := range cursors {
		if err := view.CommitCursor(ent.Consumer, ent.Topic, ent.Partition, next); err != nil {
			return nil, err
		}
	}
	return view, nil
}

// recoverLongest publishes into p, a partition of a post-mortem view, the
// longest of its replica logs in dataDirs (the earliest directory winning a
// tie) and validates the others. The candidate is the replica whose segments
// hold the most bytes, the earliest directory on a tie: it is recovered
// straight into p in its one validating pass, keeping its buffers. The others
// are validated through the reader's window and kept nowhere. Only when one
// of them proves longer — the candidate's tail was torn, say — or as long
// from an earlier directory does p drop what it holds and recover that one:
// the one case where a segment is read twice.
func (p *Partition) recoverLongest(dataDirs []string) error {
	name, opts := p.topic.cfg.Name, wal.Options{ReadOnly: true}
	listings := make([]wal.Segments, len(dataDirs))
	cand := 0
	for i, dir := range dataDirs {
		segs, err := wal.ListSegments(partitionDir(dir, name, p.index))
		if err != nil {
			return err
		}
		listings[i] = segs
		if segs.Bytes() > listings[cand].Bytes() {
			cand = i
		}
	}
	length, err := p.recoverClosed(listings[cand], opts)
	if err != nil {
		return err
	}
	donor := cand
	for i, segs := range listings {
		if i == cand {
			continue
		}
		l, err := wal.OpenReplay(segs, opts, nil)
		if err != nil {
			return fmt.Errorf("mofka: validate %s[%d] in %s: %w", name, p.index, dataDirs[i], err)
		}
		if n := l.NextOffset(); n > length || n == length && i < donor {
			donor, length = i, n
		}
		if err := l.Close(); err != nil {
			return err
		}
	}
	if donor == cand {
		return nil
	}
	if err := p.TruncateTo(0); err != nil {
		return err
	}
	segs, err := wal.ListSegments(partitionDir(dataDirs[donor], name, p.index))
	if err != nil {
		return err
	}
	_, err = p.recoverClosed(segs, opts)
	return err
}

// recoverClosed is recoverFrom on a read-only log that it closes, returning
// the number of records recovered.
func (p *Partition) recoverClosed(segs wal.Segments, opts wal.Options) (uint64, error) {
	l, err := p.recoverFrom(segs, opts)
	if err != nil {
		return 0, err
	}
	return l.NextOffset(), l.Close()
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
	if err := wal.WriteFileAtomic(filepath.Join(dir, "topic.json"), cfgJSON); err != nil {
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
