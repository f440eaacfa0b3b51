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

	"taskprov/internal/mofka/wal"
)

// Options configures a broker's durable backend. The zero value (no DataDir)
// is a purely in-memory broker, as before.
type Options struct {
	// DataDir roots the on-disk event log. Layout:
	//
	//	<DataDir>/topics/<name>/topic.json      topic configuration
	//	<DataDir>/topics/<name>/p<NNNN>/*.seg   per-partition WAL segments
	//
	// Opening a broker on an existing DataDir recovers every topic and event
	// persisted there (truncating torn segment tails left by a crash).
	DataDir string
	// WAL tunes the per-partition logs (the fsync policy). Zero values take
	// the wal package defaults.
	WAL wal.Options
	// ReadOnly opens the data directory for post-mortem analysis: events
	// replay into memory, but nothing on disk is appended, truncated, or
	// rewritten.
	ReadOnly bool
}

// NewDurableBroker builds a standalone broker whose partitions are backed by
// the segmented event log under opts.DataDir. If the directory already holds
// a log (from a previous run, clean or crashed), its topics and events are
// recovered before the broker is returned.
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

// OpenPostMortem opens a data directory for analysis without a live broker
// process: all topics replay into an in-memory broker, and the
// on-disk log is never modified. This is PERFRECUP's post-mortem loading
// mode.
func OpenPostMortem(dataDir string) (*Broker, error) {
	return NewDurableBroker(Options{DataDir: dataDir, ReadOnly: true})
}

// IsDataDir reports whether dir looks like a durable broker data directory:
// one holding a topics directory.
func IsDataDir(dir string) bool {
	st, err := os.Stat(filepath.Join(dir, "topics"))
	return err == nil && st.IsDir()
}

func topicDir(dataDir, name string) string {
	return filepath.Join(dataDir, "topics", name)
}

func partitionDir(dataDir, name string, index int) string {
	return filepath.Join(topicDir(dataDir, name), fmt.Sprintf("p%04d", index))
}

// attachDataDir wires the durable backend into a freshly built broker:
// recovers every topic directory (config + one pass over each partition's
// WAL), and leaves writable logs attached for subsequent appends.
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
	names, err := topicDirs(opts.DataDir)
	if err != nil {
		return err
	}
	var parts []*Partition
	for _, name := range names {
		cfg, err := readTopicConfig(opts.DataDir, name)
		if err != nil {
			return err
		}
		t := b.buildTopic(cfg)
		parts = append(parts, t.partitions...)
		b.topics[cfg.Name] = t
	}
	recoverPart := func(i int) error {
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
	}
	if err = inParallel(len(parts), func() func(i int) error { return recoverPart }); err != nil {
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
func readTopicConfig(dataDir, name string) (TopicConfig, error) {
	cfgBytes, err := os.ReadFile(filepath.Join(topicDir(dataDir, name), "topic.json"))
	if err != nil {
		return TopicConfig{}, fmt.Errorf("mofka: recover topic %s: %w", name, err)
	}
	var cfg TopicConfig
	if err := json.Unmarshal(cfgBytes, &cfg); err != nil {
		return TopicConfig{}, fmt.Errorf("mofka: recover topic %s: corrupt topic.json: %w", name, err)
	}
	if cfg.Name != name {
		return TopicConfig{}, fmt.Errorf("mofka: topic dir %q holds config for %q", name, cfg.Name)
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	return cfg, nil
}

// recoverFrom rebuilds the partition from the log segs lists, so the consumer
// API serves exactly the persisted stream: the log's one validating pass over
// its segments hands the records over by the batch, and each batch goes
// through admit, which keeps the metadata where the log read it, and is
// stored. It returns the opened log.
func (p *Partition) recoverFrom(segs wal.Segments, opts wal.Options) (*wal.Log, error) {
	var metas [][]byte
	l, err := wal.OpenReplay(segs, opts, func(recs []wal.Record) error {
		metas = metas[:0]
		for _, r := range recs {
			metas = append(metas, r.Meta)
		}
		a, err := p.admit(metas, true)
		if err != nil {
			return err
		}
		_, err = p.store(a, true)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("mofka: recover %s[%d]: %w", p.topic.cfg.Name, p.index, err)
	}
	return l, nil
}

// inParallel runs job(0) … job(n-1) on up to GOMAXPROCS goroutines and
// returns the failure with the lowest index. Each goroutine calls worker once
// for the job function it runs, so a job can reuse what its worker keeps
// from one job to the next. Jobs start in index order and none starts once
// one has failed, so which failure that is does not depend on scheduling.
func inParallel(n int, worker func() func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job := worker()
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
// the topic with another partition count fails the load. The directories are
// a cluster's node directories.
func OpenPostMortemReplicas(dataDirs []string) (*Broker, error) {
	view := NewStandaloneBroker()
	type replicas struct {
		part *Partition // of the view
		dirs []string   // holding the topic, in directory order
	}
	var jobs []replicas
	first := make(map[string]int) // topic → the job of its partition 0
	for _, dir := range dataDirs {
		names, err := topicDirs(dir)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			cfg, err := readTopicConfig(dir, name)
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

	err := inParallel(len(jobs), func() func(i int) error {
		var w wal.Window // the worker's, for every replica it validates
		return func(i int) error {
			return jobs[i].part.recoverLongest(jobs[i].dirs, &w)
		}
	})
	if err != nil {
		return nil, err
	}
	return view, nil
}

// recoverLongest publishes into p, a partition of a post-mortem view, the
// longest of its replica logs in dataDirs (the earliest directory winning a
// tie) and validates the others. The candidate is the replica whose segments
// hold the most bytes, the earliest directory on a tie: it is recovered
// straight into p in its one validating pass, keeping its buffers. The others
// are validated through w, the window of the goroutine running the job, and
// kept nowhere. Only when one of them proves longer — the candidate's tail
// was torn, say — or as long from an earlier directory does p drop what it
// holds and recover that one: the one case where a segment is read twice.
func (p *Partition) recoverLongest(dataDirs []string, w *wal.Window) error {
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
		n, err := wal.Validate(segs, w)
		if err != nil {
			return fmt.Errorf("mofka: validate %s[%d] in %s: %w", name, p.index, dataDirs[i], err)
		}
		if n > length || n == length && i < donor {
			donor, length = i, n
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
func (b *Broker) persistTopic(t *Topic) error {
	name := t.cfg.Name
	if strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("%w: topic name %q not usable as a directory", ErrInvalidEvent, name)
	}
	dir := topicDir(b.dataDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mofka: topic dir %s: %w", name, err)
	}
	cfgJSON, err := json.Marshal(t.cfg)
	if err != nil {
		return fmt.Errorf("mofka: encode config for topic %s: %w", name, err)
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
