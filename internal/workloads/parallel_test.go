package workloads

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/live"
	"taskprov/internal/mofka"
	"taskprov/internal/perfrecup"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
)

// splitProcs is the GOMAXPROCS the parallel side of these tests runs at: more
// decoders than a topic has partitions, on any machine.
const splitProcs = 5

// withProcs runs f at GOMAXPROCS n.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// parallelDirs holds the post-mortem dirs the serial ≡ parallel tests read
// besides the seeded runs: an imageprocessing -cluster 3 -replication 2 dir
// and one whose scheduler chaos killed at 30 s, each loaded once per test
// binary.
var parallelDirs struct {
	sync.Once
	cluster, killed *core.RunArtifacts
	err             error
}

func loadParallelDirs(t *testing.T) (cluster, killed *core.RunArtifacts) {
	t.Helper()
	parallelDirs.Do(func() {
		root := t.TempDir()
		run := func(name string, mod func(*core.SessionConfig)) (string, error) {
			wf, err := New("imageprocessing")
			if err != nil {
				return "", err
			}
			dir := filepath.Join(root, name)
			cfg := DefaultSession("imageprocessing", "job-"+name, 3)
			cfg.MofkaDataDir = dir
			mod(&cfg)
			_, err = core.Run(cfg, wf)
			return dir, err
		}
		clusterDir, err := run("cluster", func(cfg *core.SessionConfig) { cfg.ClusterBrokers, cfg.ClusterReplication = 3, 2 })
		if err != nil {
			parallelDirs.err = err
			return
		}
		killedDir, err := run("killed", func(cfg *core.SessionConfig) { cfg.ChaosSpec = "scheduler at=30s" })
		var crash *core.CrashError
		if !errors.As(err, &crash) {
			parallelDirs.err = fmt.Errorf("killed run: expected a CrashError, got %v", err)
			return
		}
		if parallelDirs.cluster, parallelDirs.err = perfrecup.LoadEventLog(clusterDir); parallelDirs.err != nil {
			return
		}
		parallelDirs.killed, parallelDirs.err = perfrecup.LoadEventLog(killedDir)
	})
	if parallelDirs.err != nil {
		t.Fatal(parallelDirs.err)
	}
	return parallelDirs.cluster, parallelDirs.killed
}

// namedRun is one run of the serial ≡ parallel corpus.
type namedRun struct {
	name string
	art  *core.RunArtifacts
}

// parallelCorpus is every run the serial ≡ parallel tests read.
func parallelCorpus(t *testing.T) []namedRun {
	t.Helper()
	var out []namedRun
	for _, name := range seededWorkflows {
		out = append(out, namedRun{name, seededRun(t, name)})
	}
	cluster, killed := loadParallelDirs(t)
	return append(out, namedRun{"cluster", cluster}, namedRun{"killed", killed})
}

// serialRecords is the sequential reference for provenance.Records: one
// consumer's Scan, in Drain order, through one decoder.
func serialRecords[T any](b *mofka.Broker, topic string, decode func(*provenance.Decoder, []byte) (T, error)) ([]T, error) {
	t, err := b.OpenTopic(topic)
	if err != nil {
		return nil, err
	}
	c, err := t.NewConsumer(mofka.ConsumerOptions{})
	if err != nil {
		return nil, err
	}
	var x provenance.Decoder
	out := []T{}
	err = c.Scan(func(partition int, id uint64, metadata []byte) error {
		rec, err := decode(&x, metadata)
		if err != nil {
			return fmt.Errorf("provenance: corrupt event %s[%d]/%d: %w", topic, partition, id, err)
		}
		out = append(out, rec)
		return nil
	})
	return out, err
}

// checkTopicRecords holds one accessor of a fresh Records, read with
// splitProcs decoders, to the serial reference: the same error, or the same
// records in the same order.
func checkTopicRecords[T any](t *testing.T, what string, b *mofka.Broker, topic string, read func(*provenance.Records) ([]T, error), decode func(*provenance.Decoder, []byte) (T, error)) int {
	t.Helper()
	var got []T
	var err error
	withProcs(splitProcs, func() { got, err = read(provenance.NewRecords(b)) })
	want, wantErr := serialRecords(b, topic, decode)
	if errors.Is(wantErr, mofka.ErrNoTopic) && errors.Is(err, mofka.ErrNoTopic) {
		return 0
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: %s: Records says %v, the serial drain %v", what, topic, err, wantErr)
	}
	if wantErr != nil {
		return 0
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %s: %d records, the serial drain %d", what, topic, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: %s: record %d is %+v, the serial drain's %+v", what, topic, i, got[i], want[i])
		}
	}
	return len(got)
}

// checkRecords runs checkTopicRecords over every accessor and returns the
// records compared.
func checkRecords(t *testing.T, what string, b *mofka.Broker) int {
	t.Helper()
	type R = provenance.Records
	type D = provenance.Decoder
	n := checkTopicRecords(t, what, b, provenance.TopicTaskMeta, (*R).TaskMeta, (*D).TaskMeta)
	n += checkTopicRecords(t, what, b, provenance.TopicTransitions, (*R).Transitions, (*D).Transition)
	n += checkTopicRecords(t, what, b, provenance.TopicExecutions, (*R).Executions, (*D).Execution)
	n += checkTopicRecords(t, what, b, provenance.TopicTransfers, (*R).Transfers, (*D).Transfer)
	n += checkTopicRecords(t, what, b, provenance.TopicWarnings, (*R).Warnings, (*D).Warning)
	n += checkTopicRecords(t, what, b, provenance.TopicHeartbeats, (*R).Heartbeats, (*D).Heartbeat)
	n += checkTopicRecords(t, what, b, provenance.TopicSteals, (*R).Steals, (*D).Steal)
	n += checkTopicRecords(t, what, b, provenance.TopicGraphs, (*R).Graphs, (*D).GraphEvent)
	n += checkTopicRecords(t, what, b, provenance.TopicProxy, (*R).Proxy, (*D).ProxyEvent)
	n += checkTopicRecords(t, what, b, provenance.TopicSpeculation, (*R).Speculation, (*D).Speculation)
	return n
}

// TestRecordsParallelMatchesSerial holds provenance.Records, which decodes a
// topic on several goroutines straight into each event's slot of Drain's
// order, to a single consumer's sequential drain, record for record: every
// topic of the three paper workflows, a -cluster 3 -replication 2 dir and a
// dir whose scheduler was killed, each read with more decoders than the
// topics have partitions. Then corrupt events planted in both partitions of
// a topic, at places that put the first one in Drain order on either
// partition and in any decoder's share: the error must name the event the
// serial drain stops at.
func TestRecordsParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow runs")
	}
	for _, run := range parallelCorpus(t) {
		if n := checkRecords(t, run.name, run.art.Broker); n < 10000 {
			t.Errorf("%s: compared %d records, want the whole run's", run.name, n)
		}
	}

	// 600 events a partition: ten chunks of Drain's 64 each, 20 in all,
	// split among splitProcs decoders.
	for _, bad := range [][2]int{{-1, -1}, {0, -1}, {-1, 0}, {200, 70}, {70, 200}, {130, 130}, {599, 575}, {575, 599}, {-1, 599}} {
		b := mofka.NewStandaloneBroker()
		tp, err := b.CreateTopic(mofka.TopicConfig{Name: provenance.TopicSteals, Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		for part := 0; part < 2; part++ {
			p, err := tp.Partition(part)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 600; i++ {
				meta := provenance.AppendSteal(nil, dask.StealEvent{Key: dask.TaskKey(fmt.Sprintf("k-%d-%03d", part, i)),
					Victim: "v", Thief: "t", At: sim.Milliseconds(float64(i))})
				if i == bad[part] {
					meta = []byte(`[1,2]`)
				}
				if err := p.Append([][]byte{meta}, [][]byte{nil}); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkTopicRecords(t, fmt.Sprintf("corrupt at %v", bad), b, provenance.TopicSteals, (*provenance.Records).Steals, (*provenance.Decoder).Steal)
	}
}

// sameJSON fails unless got and want marshal to the same bytes: every float
// bit for bit, since the shortest form that reads back tells any two apart.
func sameJSON(t *testing.T, what string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("%s:\n got %s\nwant %s", what, g, w)
	}
}

// TestReplayParallelMatchesSerial holds live.ReplayBroker, which decodes a
// topic's chunks on several goroutines and applies them in the monitor's
// order, to its one-core self, which decodes and applies each chunk in line:
// the Summary bit for bit, windows and anomalies included, on the three
// paper workflows, a cluster dir and a killed dir. perfrecup.Phases, which
// replays the phase topics the same way, gives the same bits with several
// decoders as with one.
func TestReplayParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow runs")
	}
	anomalies := 0
	for _, run := range parallelCorpus(t) {
		want := live.NewAggregator(live.AggregatorOptions{})
		var err error
		withProcs(1, func() { err = live.ReplayBroker(run.art.Broker, want) })
		if err != nil {
			t.Fatalf("%s: serial replay: %v", run.name, err)
		}
		got := live.NewAggregator(live.AggregatorOptions{})
		withProcs(splitProcs, func() { err = live.ReplayBroker(run.art.Broker, got) })
		if err != nil {
			t.Fatalf("%s: ReplayBroker: %v", run.name, err)
		}
		g, w := got.Snapshot(), want.Snapshot()
		if w.Events < 10000 || len(w.Windows) == 0 {
			t.Fatalf("%s: the serial replay saw %d events, %d windows", run.name, w.Events, len(w.Windows))
		}
		anomalies += len(w.Anomalies)
		sameJSON(t, run.name+": ReplayBroker's Summary", g, w)

		var serial, parallel perfrecup.PhaseBreakdown
		withProcs(1, func() { serial, err = perfrecup.Phases(run.art) })
		if err != nil {
			t.Fatalf("%s: Phases: %v", run.name, err)
		}
		withProcs(splitProcs, func() { parallel, err = perfrecup.Phases(run.art) })
		if err != nil {
			t.Fatalf("%s: Phases: %v", run.name, err)
		}
		sameJSON(t, run.name+": Phases", parallel, serial)
	}
	if anomalies == 0 {
		t.Error("no run raised an anomaly: the detectors' order went unchecked")
	}
}
