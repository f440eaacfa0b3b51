package workloads

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"taskprov/internal/core"
	"taskprov/internal/live"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
)

// checkTopicCodec holds the typed codec to the map API on every stored event
// of one topic: the bytes are what encoding/json writes for their content,
// the decoder agrees with Parse over a decoded map, and the two encoders agree
// on the decoded record.
func checkTopicCodec[T any](t *testing.T, art *core.RunArtifacts, dec *provenance.Decoder, topic string,
	decode func(*provenance.Decoder, []byte) (T, error), parse func(mofka.Metadata) T,
	appendTo func([]byte, T) []byte, event func(T) mofka.Metadata) int {
	t.Helper()
	tp, err := art.Broker.OpenTopic(topic)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tp.NewConsumer(mofka.ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs {
		raw := ev.Metadata
		m, err := mofka.DecodeMetadata(raw)
		if err != nil {
			t.Fatalf("%s[%d]: %v", topic, i, err)
		}
		if canon := m.Encode(); !bytes.Equal(raw, canon) {
			t.Fatalf("%s[%d] is not canonical:\nstored %s\n  json %s", topic, i, raw, canon)
		}
		rec, err := decode(dec, raw)
		if err != nil {
			t.Fatalf("%s[%d]: decode %s: %v", topic, i, raw, err)
		}
		spec := parse(m)
		if !reflect.DeepEqual(rec, spec) {
			t.Fatalf("%s[%d]: %s\n typed %+v\n   map %+v", topic, i, raw, rec, spec)
		}
		if got, want := appendTo(nil, rec), event(spec).Encode(); !bytes.Equal(got, want) {
			t.Fatalf("%s[%d]: append %s, map encoder %s", topic, i, got, want)
		}
	}
	return len(evs)
}

// collected is the number of events the run's collector pushed.
func collected(art *core.RunArtifacts) int64 {
	var n int64
	for _, topic := range provenance.AllTopics() {
		n += art.Collector.EventCount(topic)
	}
	return n
}

var seededWorkflows = []string{"imageprocessing", "resnet152", "xgboost"}

// seededRuns keeps the seed-5 run of each workflow for the tests that only
// read its events, so the corpus is produced once per test binary.
var seededRuns struct {
	sync.Mutex
	arts map[string]*core.RunArtifacts
}

func seededRun(t *testing.T, name string) *core.RunArtifacts {
	t.Helper()
	seededRuns.Lock()
	defer seededRuns.Unlock()
	if seededRuns.arts[name] == nil {
		if seededRuns.arts == nil {
			seededRuns.arts = make(map[string]*core.RunArtifacts)
		}
		seededRuns.arts[name] = runOnce(t, name, 5)
	}
	return seededRuns.arts[name]
}

// replayChunk is live's chunk: ReplayBroker applies a topic in the order
// mofka.Topic.Chunks(replayChunk) gives.
const replayChunk = 256

// TestTypedIngestMatchesMapIngest feeds every event of the seeded runs to two
// live aggregators — one through ReplayBroker, the chunk path that decodes
// the stored bytes, one through IngestEvent over the decoded map, in the
// replay's order — and requires equal snapshots: the typed read path changes
// no summary.
func TestTypedIngestMatchesMapIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow runs")
	}
	for _, name := range seededWorkflows {
		art := seededRun(t, name)
		typed, mapped := live.NewAggregator(live.AggregatorOptions{}), live.NewAggregator(live.AggregatorOptions{})
		if err := live.ReplayBroker(art.Broker, typed); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, topic := range provenance.AllTopics() {
			tp, err := art.Broker.OpenTopic(topic)
			if err != nil {
				continue
			}
			for _, c := range tp.Chunks(replayChunk) {
				p, err := tp.Partition(c.Part)
				if err != nil {
					t.Fatal(err)
				}
				p.Scan(c.From, c.N, func(_ uint64, metadata []byte) bool {
					var m mofka.Metadata
					if m, err = mofka.DecodeMetadata(metadata); err != nil {
						return false
					}
					mapped.IngestEvent(topic, c.Part, m)
					return true
				})
				if err != nil {
					t.Fatalf("%s: %s: %v", name, topic, err)
				}
			}
		}
		got, want := typed.Snapshot(), mapped.Snapshot()
		if got.Events != collected(art) || got.Tasks == 0 {
			t.Fatalf("%s: ingested %d events (%d tasks), the collector pushed %d", name, got.Events, got.Tasks, collected(art))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: typed and map ingest disagree:\n typed %+v\n   map %+v", name, got, want)
		}
	}
}

// TestCodecOnSeededRuns runs each workflow once and checks every event it
// collected (the proxy and speculation topics stay empty in default sessions;
// the provenance package's hostile-input tests cover their codecs).
func TestCodecOnSeededRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow runs")
	}
	for _, name := range seededWorkflows {
		art := seededRun(t, name)
		// One decoder for the whole run: every topic is read with the
		// scratch the topics before it left.
		dec := new(provenance.Decoder)
		n := checkTopicCodec(t, art, dec, provenance.TopicTaskMeta, (*provenance.Decoder).TaskMeta, provenance.ParseTaskMeta, provenance.AppendTaskMeta, provenance.TaskMetaEvent)
		n += checkTopicCodec(t, art, dec, provenance.TopicTransitions, (*provenance.Decoder).Transition, provenance.ParseTransition, provenance.AppendTransition, provenance.TransitionEvent)
		n += checkTopicCodec(t, art, dec, provenance.TopicExecutions, (*provenance.Decoder).Execution, provenance.ParseExecution, provenance.AppendExecution, provenance.ExecutionEvent)
		n += checkTopicCodec(t, art, dec, provenance.TopicTransfers, (*provenance.Decoder).Transfer, provenance.ParseTransfer, provenance.AppendTransfer, provenance.TransferEvent)
		n += checkTopicCodec(t, art, dec, provenance.TopicWarnings, (*provenance.Decoder).Warning, provenance.ParseWarning, provenance.AppendWarning, provenance.WarningEvent)
		n += checkTopicCodec(t, art, dec, provenance.TopicHeartbeats, (*provenance.Decoder).Heartbeat, provenance.ParseHeartbeat, provenance.AppendHeartbeat, provenance.HeartbeatEvent)
		n += checkTopicCodec(t, art, dec, provenance.TopicSteals, (*provenance.Decoder).Steal, provenance.ParseSteal, provenance.AppendSteal, provenance.StealEventMeta)
		n += checkTopicCodec(t, art, dec, provenance.TopicProxy, (*provenance.Decoder).ProxyEvent, provenance.ParseProxyEvent, provenance.AppendProxyEvent, provenance.ProxyEventMeta)
		n += checkTopicCodec(t, art, dec, provenance.TopicSpeculation, (*provenance.Decoder).Speculation, provenance.ParseSpeculationEvent, provenance.AppendSpeculation, provenance.SpeculationEventMeta)
		n += checkTopicCodec(t, art, dec, provenance.TopicGraphs, (*provenance.Decoder).GraphEvent,
			func(m mofka.Metadata) provenance.GraphEvent {
				return provenance.GraphEvent{GraphID: int(provenance.Num(m, "graph_id")), Event: provenance.Str(m, "event"), At: provenance.Num(m, "at")}
			},
			provenance.AppendGraphEvent,
			func(g provenance.GraphEvent) mofka.Metadata {
				return mofka.Metadata{"graph_id": g.GraphID, "event": g.Event, "at": g.At}
			})
		if int64(n) != collected(art) || n == 0 {
			t.Fatalf("%s: checked %d events, the collector pushed %d", name, n, collected(art))
		}
		t.Logf("%s: %d events", name, n)

		// WriteDir streams the stored bytes; the JSONL must be what decoding
		// every event to a map and marshalling it back used to write.
		dir := t.TempDir()
		if err := art.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		for _, topic := range art.Broker.Topics() {
			got, err := os.ReadFile(filepath.Join(dir, "mofka", topic+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if want := legacyTopicJSONL(t, art.Broker, topic); !bytes.Equal(got, want) {
				t.Fatalf("%s: %s.jsonl differs from the decode-and-marshal rendering (%d vs %d bytes)", name, topic, len(got), len(want))
			}
		}
		// ... and the worker logs, rendered from one pass over the topics,
		// must be what a pass per worker used to write.
		workers, err := art.WorkerAddrs()
		if err != nil || len(workers) == 0 {
			t.Fatalf("%s: workers %v, %v", name, workers, err)
		}
		for i, w := range workers {
			got, err := os.ReadFile(filepath.Join(dir, "logs", fmt.Sprintf("worker-%04d.log", i)))
			if err != nil {
				t.Fatal(err)
			}
			if want := legacyWorkerLog(t, art, w); string(got) != want {
				t.Fatalf("%s: worker-%04d.log differs from the per-worker rendering:\n%s\nwant:\n%s", name, i, got, want)
			}
		}
	}
}

// legacyTopicJSONL is core.writeTopic as it was before it streamed stored
// bytes: drain the topic, decode each event to a map, marshal the map.
func legacyTopicJSONL(t *testing.T, b *mofka.Broker, topic string) []byte {
	t.Helper()
	tp, err := b.OpenTopic(topic)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tp.NewConsumer(mofka.ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, ev := range evs {
		line, err := json.Marshal(provenance.MustParse(ev))
		if err != nil {
			t.Fatal(err)
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// legacyWorkerLog is core.RenderWorkerLog as it was when every worker's log
// drained the warnings and executions topics for itself.
func legacyWorkerLog(t *testing.T, art *core.RunArtifacts, worker string) string {
	t.Helper()
	type line struct {
		at   float64
		text string
	}
	var lines []line
	warns, err := art.Records().Warnings()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range warns {
		if w.Worker != worker {
			continue
		}
		switch w.Kind {
		case "unresponsive_event_loop":
			lines = append(lines, line{w.At.Seconds(), fmt.Sprintf(
				"WARN  - Event loop was unresponsive in Worker for %.2fs. This is often caused by long-running GIL-holding functions", w.Duration.Seconds())})
		case "gc_collection":
			lines = append(lines, line{w.At.Seconds(), fmt.Sprintf(
				"WARN  - full garbage collection took %.0f ms", 1000*w.Duration.Seconds())})
		default:
			lines = append(lines, line{w.At.Seconds(), "WARN  - " + w.Message})
		}
	}
	execs, err := art.Records().Executions()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range execs {
		if e.Worker == worker {
			n++
		}
	}
	lines = append(lines, line{0, fmt.Sprintf("INFO  - Start worker at %s", worker)})
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].at < lines[j].at })
	var sb strings.Builder
	for _, l := range lines {
		fmt.Fprintf(&sb, "%12.6f %s\n", l.at, l.text)
	}
	fmt.Fprintf(&sb, "%12s INFO  - Worker executed %d tasks\n", "---", n)
	return sb.String()
}
