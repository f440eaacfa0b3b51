package core

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"taskprov/internal/darshan"
	"taskprov/internal/mofka"
	"taskprov/internal/sim"
)

// Artifact file layout inside a run directory:
//
//	metadata.json                 run provenance chart
//	darshan/rank<N>.darshan       per-worker binary Darshan logs
//	mofka/<topic>.jsonl           one JSON event per line, in partition order
//
// The layout is what cmd/taskprov writes and cmd/perfrecup reads: the
// "collect separately, fuse at analysis time" boundary of the paper.

// WriteDir persists the artifacts under dir (created if needed).
func (a *RunArtifacts) WriteDir(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "darshan"), 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "mofka"), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "metadata.json"), EncodeMetadata(a.Meta), 0o644); err != nil {
		return err
	}
	if err := a.WriteDarshanLogs(dir); err != nil {
		return err
	}
	for _, topic := range a.Broker.Topics() {
		if err := a.writeTopic(dir, topic); err != nil {
			return err
		}
	}
	if err := a.writeLogs(dir); err != nil {
		return err
	}
	return nil
}

// WriteDarshanLogs writes the per-worker binary Darshan logs under
// dir/darshan (created if needed). WriteDir calls it for run directories;
// durable runs also call it on the Mofka data directory so post-mortem
// analysis sees the I/O layer too.
func (a *RunArtifacts) WriteDarshanLogs(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "darshan"), 0o755); err != nil {
		return err
	}
	for _, l := range a.DarshanLogs {
		p := filepath.Join(dir, "darshan", fmt.Sprintf("rank%04d.darshan", l.Job.Rank))
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		if err := l.Write(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// writeLogs emits the synthesized scheduler/worker textual logs (part of
// the job-layer provenance).
func (a *RunArtifacts) writeLogs(dir string) error {
	logDir := filepath.Join(dir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	sched, err := RenderSchedulerLog(a)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(logDir, "scheduler.log"), []byte(sched), 0o644); err != nil {
		return err
	}
	workers, err := a.WorkerAddrs()
	if err != nil {
		return err
	}
	logs, err := RenderWorkerLogs(a, workers)
	if err != nil {
		return err
	}
	for i, wl := range logs {
		p := filepath.Join(logDir, fmt.Sprintf("worker-%04d.log", i))
		if err := os.WriteFile(p, []byte(wl), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeTopic writes one topic as JSONL: each event's stored metadata — valid,
// compact, and from this repo's encoders canonical — on a line of its own, in
// drain order, with no decode in between.
func (a *RunArtifacts) writeTopic(dir, topic string) error {
	t, err := a.Broker.OpenTopic(topic)
	if err != nil {
		return err
	}
	c, err := t.NewConsumer(mofka.ConsumerOptions{})
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "mofka", topic+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = c.Scan(func(_ int, _ uint64, metadata []byte) error {
		if _, err := w.Write(metadata); err != nil {
			return err
		}
		return w.WriteByte('\n')
	})
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		_ = f.Close()
		return err
	}
	// Close errors on the write path are data loss, not noise.
	return f.Close()
}

// LoadDir reads artifacts previously written by WriteDir. The Mofka topics
// are rebuilt into a fresh in-memory broker so analysis code can consume
// them through the normal consumer API.
func LoadDir(dir string) (*RunArtifacts, error) {
	metaBytes, err := os.ReadFile(filepath.Join(dir, "metadata.json"))
	if err != nil {
		return nil, fmt.Errorf("core: load %s: %w", dir, err)
	}
	meta, err := DecodeMetadata(metaBytes)
	if err != nil {
		return nil, err
	}
	art := &RunArtifacts{Meta: meta, Broker: mofka.NewStandaloneBroker()}

	if art.DarshanLogs, err = darshan.ReadDir(filepath.Join(dir, "darshan")); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	topics, err := filepath.Glob(filepath.Join(dir, "mofka", "*.jsonl"))
	if err != nil {
		return nil, err
	}
	for _, p := range topics {
		name := filepath.Base(p)
		name = name[:len(name)-len(".jsonl")]
		t, err := art.Broker.CreateTopic(mofka.TopicConfig{Name: name, Partitions: 1})
		if err != nil {
			return nil, err
		}
		prod := t.NewProducer(mofka.ProducerOptions{BatchSize: 512})
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			line := append([]byte(nil), sc.Bytes()...)
			if len(line) == 0 {
				continue
			}
			if err := prod.PushRaw(line, nil); err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("core: %s: %w", p, err)
			}
		}
		if err := sc.Err(); err != nil {
			_ = f.Close()
			return nil, err
		}
		_ = f.Close()
		if err := prod.Close(); err != nil {
			return nil, err
		}
	}
	art.WallTime = sim.Seconds(meta.WallSeconds)
	return art, nil
}
