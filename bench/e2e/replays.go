package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"taskprov/internal/core"
	"taskprov/internal/darshan"
	"taskprov/internal/live"
	"taskprov/internal/mofka"
	"taskprov/internal/mofka/cluster"
	"taskprov/internal/mofka/wal"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
)

// Stage replays: one collected imageprocessing run is drained to its events, and the same
// events are fed through each layer's public API alone. Every replay runs
// under the calibrator like a timed cycle, so its number is in nominal
// seconds. They are the same work in every traced run, whichever workload
// was named, which makes them the per-layer metrics two commits can be
// compared on.

// sessionBatch is the producer batch size instrumented sessions use
// (core.DefaultSessionConfig).
const sessionBatch = 64

// eventSet is one collected run, drained.
type eventSet struct {
	topics []string
	metas  map[string][]mofka.Metadata
	raws   map[string][][]byte
	n      int
	bytes  int64
	logs   []*darshan.Log
}

func (es *eventSet) drain(art *core.RunArtifacts) error {
	for _, topic := range provenance.AllTopics() {
		t, err := art.Broker.OpenTopic(topic)
		if err != nil {
			return err
		}
		c, err := t.NewConsumer(mofka.ConsumerOptions{NoData: true})
		if err != nil {
			return err
		}
		evs, err := c.Drain()
		if err != nil {
			return err
		}
		for _, ev := range evs {
			es.metas[topic] = append(es.metas[topic], provenance.MustParse(ev))
			es.raws[topic] = append(es.raws[topic], ev.Metadata)
			es.bytes += int64(len(ev.Metadata))
		}
		es.n += len(evs)
	}
	es.logs = append(es.logs, art.DarshanLogs...)
	return nil
}

// batches calls f with the set's raw events, topic by topic, in
// session-size batches.
func (es *eventSet) batches(f func(topic string, batch [][]byte) error) error {
	for _, topic := range es.topics {
		raws := es.raws[topic]
		for len(raws) > 0 {
			n := min(sessionBatch, len(raws))
			if err := f(topic, raws[:n]); err != nil {
				return err
			}
			raws = raws[n:]
		}
	}
	return nil
}

// stage times one replay under the calibrator and returns nominal seconds.
func (h *harness) stage(name string, f func() error) float64 {
	runtime.GC()
	t0 := time.Now()
	err := h.tr.do("replay."+name, f)
	raw := time.Since(t0).Seconds()
	if err != nil {
		h.fail("replay %s: %v", name, err)
	}
	before := h.lastCal
	h.lastCal = h.cal.takeQuick()
	return calibrated(raw, before, h.lastCal)
}

// codecPass is the provenance layer's two halves over one topic's events,
// typed so that no boxing is charged to the layer.
type codecPass struct{ parse, encode func() }

var metaSink mofka.Metadata

func newCodecPass[T any](metas []mofka.Metadata, parse func(mofka.Metadata) T, encode func(T) mofka.Metadata) codecPass {
	recs := make([]T, len(metas))
	return codecPass{
		parse: func() {
			for i, m := range metas {
				recs[i] = parse(m)
			}
		},
		encode: func() {
			for _, r := range recs {
				metaSink = encode(r)
			}
		},
	}
}

type graphDone struct {
	id int
	at sim.Time
}

func codecPasses(es *eventSet) []codecPass {
	m := es.metas
	return []codecPass{
		newCodecPass(m[provenance.TopicTaskMeta], provenance.ParseTaskMeta, provenance.TaskMetaEvent),
		newCodecPass(m[provenance.TopicTransitions], provenance.ParseTransition, provenance.TransitionEvent),
		newCodecPass(m[provenance.TopicExecutions], provenance.ParseExecution, provenance.ExecutionEvent),
		newCodecPass(m[provenance.TopicTransfers], provenance.ParseTransfer, provenance.TransferEvent),
		newCodecPass(m[provenance.TopicWarnings], provenance.ParseWarning, provenance.WarningEvent),
		newCodecPass(m[provenance.TopicHeartbeats], provenance.ParseHeartbeat, provenance.HeartbeatEvent),
		newCodecPass(m[provenance.TopicSteals], provenance.ParseSteal, provenance.StealEventMeta),
		newCodecPass(m[provenance.TopicProxy], provenance.ParseProxyEvent, provenance.ProxyEventMeta),
		newCodecPass(m[provenance.TopicSpeculation], provenance.ParseSpeculationEvent, provenance.SpeculationEventMeta),
		newCodecPass(m[provenance.TopicGraphs],
			func(m mofka.Metadata) graphDone {
				return graphDone{int(provenance.Num(m, "graph_id")), sim.Seconds(provenance.Num(m, "at"))}
			},
			func(g graphDone) mofka.Metadata { return provenance.GraphDoneEvent(g.id, g.at) }),
	}
}

// memTopics creates one topic per source topic on a fresh in-memory broker.
func memTopics(es *eventSet, partitions int) (*mofka.Broker, map[string]*mofka.Topic, error) {
	b := mofka.NewStandaloneBroker()
	topics := make(map[string]*mofka.Topic)
	for _, name := range es.topics {
		t, err := b.CreateTopic(mofka.TopicConfig{Name: name, Partitions: partitions})
		if err != nil {
			return nil, nil, err
		}
		topics[name] = t
	}
	return b, topics, nil
}

func producerOptions() mofka.ProducerOptions {
	return mofka.ProducerOptions{BatchSize: sessionBatch, FlushRetries: 2, RetryBackoff: time.Millisecond}
}

// replays is one traced run's stage replays: the drained events, and the
// per-layer metrics as they are measured.
type replays struct {
	h   *harness
	es  *eventSet
	out map[string]float64
}

// perEvent turns a replay's seconds into nanoseconds per drained event.
func (r *replays) perEvent(seconds float64) float64 { return seconds / float64(r.es.n) * 1e9 }

// runReplays runs the source sessions and every stage replay, and returns
// the replay-derived per-layer metrics.
func (h *harness) runReplays() map[string]float64 {
	r := &replays{h: h, out: make(map[string]float64),
		es: &eventSet{topics: provenance.AllTopics(), metas: map[string][]mofka.Metadata{}, raws: map[string][][]byte{}}}
	h.tr.cycle = -1

	// The source session, which doubles as the budget's measurement:
	// imageprocessing with collection on, kept and drained. (Adding xgboost,
	// as the issue drew it, makes a traced run half as long again as an
	// untraced one; the time cap on the acceptance runs has no room for it.)
	const source = "imageprocessing"
	var art *core.RunArtifacts
	onS := h.stage("collect_on."+source, func() error {
		_, _, err := h.runSession(sessionSpec{label: source, workflow: source, configure: collectionOn,
			inspect: func(a *core.RunArtifacts) error { art = a; return nil }})
		return err
	})
	if art == nil {
		return r.out // the session failed and is counted; nothing to replay
	}
	if err := r.es.drain(art); err != nil {
		h.fail("drain %s: %v", source, err)
		return r.out
	}
	events := float64(r.es.n)
	var steps uint64
	for _, wf := range h.workflows {
		wf := wf
		s := h.stage("dask.sim."+wf, func() error {
			st, _, err := h.runSession(sessionSpec{label: wf, workflow: wf, configure: collectionOff})
			steps += st.Steps
			return err
		})
		r.out["dask.sim_s."+wf] = s
	}
	r.out["sim.steps_per_cycle"] = float64(steps)
	r.out["dask.tasks_per_cycle"] = float64(len(r.es.metas[provenance.TopicTaskMeta]))
	var durableDir string
	durableS := h.stage("collect_durable.imageprocessing", func() (err error) {
		_, durableDir, err = h.runSession(durableSpecs()[0])
		return err
	})
	h.removeDir(durableDir)

	r.sim()
	r.provenance()
	r.mofka()
	r.wal()
	r.cluster()
	r.live()
	r.darshan()
	r.core(art)

	// budget: what collection costs per event, what durability adds, and how
	// much of the first the stage replays of the in-memory path (encode,
	// then push = marshal + append) account for.
	marginal := (onS - r.out["dask.sim_s."+source]) / events * 1e6
	r.out["budget.collect_marginal_us_per_event"] = marginal
	r.out["budget.durable_marginal_us_per_event"] = (durableS - onS) / events * 1e6
	attributed := (r.out["provenance.encode_ns_per_event"] + r.out["mofka.push_ns_per_event"]) / 1e3
	r.out["budget.unattributed_share"] = 1 - attributed/marginal
	return r.out
}

// sim: a synthetic program of timers and sleeping processes.
func (r *replays) sim() {
	var steps uint64
	s := r.h.stage("sim.kernel", func() error {
		k := sim.NewKernel(1)
		const timers, procs = 1_000_000, 64
		for i := 0; i < timers; i++ {
			k.At(sim.Time(i%1000)*sim.Time(time.Millisecond), func() {})
		}
		for i := 0; i < procs; i++ {
			k.Go(func(p *sim.Proc) {
				for j := 0; j < 100; j++ {
					p.Sleep(sim.Time(time.Millisecond))
				}
			})
		}
		k.Run()
		steps = k.Steps()
		return nil
	})
	r.out["sim.kernel_ns_per_step"] = s / float64(steps) * 1e9
}

// provenance: Parse* over the drained maps, then *Event over the records.
func (r *replays) provenance() {
	passes := codecPasses(r.es)
	r.out["provenance.parse_ns_per_event"] = r.perEvent(r.h.stage("provenance.parse", func() error {
		for _, p := range passes {
			p.parse()
		}
		return nil
	}))
	r.out["provenance.encode_ns_per_event"] = r.perEvent(r.h.stage("provenance.encode", func() error {
		for _, p := range passes {
			p.encode()
		}
		return nil
	}))
}

// mofka: the producer with and without its json.Marshal, the consumer, and
// the partition append alone.
func (r *replays) mofka() {
	es := r.es
	var pushed *mofka.Broker
	push := func(raw bool) func() error {
		return func() error {
			b, topics, err := memTopics(es, 2)
			if err != nil {
				return err
			}
			pushed = b
			var events, flushes uint64
			for _, name := range es.topics {
				p := topics[name].NewProducer(producerOptions())
				if raw {
					for _, m := range es.raws[name] {
						if err := p.PushRaw(m, nil); err != nil {
							return err
						}
					}
				} else {
					for _, m := range es.metas[name] {
						if err := p.Push(m, nil); err != nil {
							return err
						}
					}
				}
				if err := p.Flush(); err != nil {
					return err
				}
				np, nf := p.Stats()
				events, flushes = events+np, flushes+nf
			}
			if flushes > 0 {
				r.out["mofka.batch_fill"] = float64(events) / float64(flushes) / sessionBatch
			}
			return nil
		}
	}
	pushNs := r.perEvent(r.h.stage("mofka.push", push(false)))
	pushRawNs := r.perEvent(r.h.stage("mofka.pushraw", push(true)))
	r.out["mofka.push_ns_per_event"] = pushNs
	r.out["mofka.pushraw_ns_per_event"] = pushRawNs
	r.out["mofka.marshal_ns_per_event"] = pushNs - pushRawNs
	r.out["mofka.meta_bytes_per_event"] = float64(es.bytes) / float64(es.n)
	r.out["mofka.pull_ns_per_event"] = r.perEvent(r.h.stage("mofka.pull", func() error {
		pulled := 0
		for _, name := range es.topics {
			t, err := pushed.OpenTopic(name)
			if err != nil {
				return err
			}
			c, err := t.NewConsumer(mofka.ConsumerOptions{NoData: true})
			if err != nil {
				return err
			}
			for {
				evs, err := c.PullBatch(sessionBatch)
				if err != nil {
					return err
				}
				if len(evs) == 0 {
					break
				}
				pulled += len(evs)
			}
		}
		if pulled != es.n {
			return fmt.Errorf("pulled %d of %d events", pulled, es.n)
		}
		return nil
	}))
	r.out["mofka.append_ns_per_event"] = r.perEvent(r.h.stage("mofka.append", func() error {
		_, topics, err := memTopics(es, 1)
		if err != nil {
			return err
		}
		noData := make([][]byte, sessionBatch)
		return es.batches(func(topic string, batch [][]byte) error {
			p, err := topics[topic].Partition(0)
			if err != nil {
				return err
			}
			return p.Append(batch, noData[:len(batch)])
		})
	}))
}

// wal: the segment log alone, with and without an fsync per batch, then
// reopened and replayed.
func (r *replays) wal() {
	h, es := r.h, r.es
	appendAll := func(dir string, policy wal.SyncPolicy) func() error {
		return func() error {
			l, err := wal.Open(dir, wal.Options{Sync: policy})
			if err != nil {
				return err
			}
			recs := make([]wal.Record, 0, sessionBatch)
			err = es.batches(func(_ string, batch [][]byte) error {
				recs = recs[:0]
				for _, m := range batch {
					recs = append(recs, wal.Record{Meta: m})
				}
				_, err := l.AppendBatch(recs)
				return err
			})
			if cerr := l.Close(); err == nil {
				err = cerr
			}
			return err
		}
	}
	batchDir, neverDir := h.newDir("wal-batch"), h.newDir("wal-never")
	defer h.removeDir(batchDir)
	batchNs := r.perEvent(h.stage("wal.append_batch", appendAll(batchDir, wal.SyncBatch)))
	neverNs := r.perEvent(h.stage("wal.append_never", appendAll(neverDir, wal.SyncNever)))
	h.removeDir(neverDir)
	r.out["wal.append_batch_ns_per_event"] = batchNs
	r.out["wal.append_never_ns_per_event"] = neverNs
	r.out["wal.fsync_share"] = 1 - neverNs/batchNs
	r.out["wal.disk_bytes_per_event"] = float64(dirBytes(batchDir)) / float64(es.n)
	var log *wal.Log
	r.out["wal.open_s"] = h.stage("wal.open", func() (err error) {
		log, err = wal.Open(batchDir, wal.Options{})
		return err
	})
	if log == nil {
		return
	}
	r.out["wal.replay_ns_per_event"] = r.perEvent(h.stage("wal.replay", func() error {
		replayed := 0
		err := log.Replay(0, func(uint64, wal.Record) bool { replayed++; return true })
		if err == nil && replayed != es.n {
			err = fmt.Errorf("replayed %d of %d records", replayed, es.n)
		}
		return err
	}))
	if err := log.Close(); err != nil {
		h.fail("wal close: %v", err)
	}
}

// cluster: quorum appends over three durable nodes at each replication
// factor (fsync never, so the number is replication, not the disk); the RF2
// deployment also gives the read view and the post-mortem open.
func (r *replays) cluster() {
	h, es := r.h, r.es
	for rf := 1; rf <= 3; rf++ {
		rf := rf
		dir := h.newDir(fmt.Sprintf("cluster-rf%d", rf))
		var clu *cluster.Cluster
		r.out[fmt.Sprintf("cluster.push_rf%d_ns_per_event", rf)] = r.perEvent(h.stage(fmt.Sprintf("cluster.push_rf%d", rf), func() error {
			var err error
			clu, err = cluster.New(cluster.Config{Brokers: 3, ReplicationFactor: rf, DataDir: dir, WAL: wal.Options{Sync: wal.SyncNever}})
			if err != nil {
				return err
			}
			for _, name := range es.topics {
				t, err := clu.EnsureTopic(mofka.TopicConfig{Name: name, Partitions: 2})
				if err != nil {
					return err
				}
				p := t.NewProducer(producerOptions())
				for _, m := range es.metas[name] {
					if err := p.Push(m, nil); err != nil {
						return err
					}
				}
				if err := p.Flush(); err != nil {
					return err
				}
			}
			return nil
		}))
		if clu == nil {
			continue
		}
		if rf == 2 {
			r.out["cluster.readview_s"] = h.stage("cluster.readview", func() error {
				view, err := clu.ReadView()
				if err == nil && brokerEvents(view) != int64(es.n) {
					err = fmt.Errorf("read view holds %d of %d events", brokerEvents(view), es.n)
				}
				return err
			})
		}
		if err := clu.Close(); err != nil {
			h.fail("cluster close: %v", err)
		}
		if rf == 2 {
			r.out["cluster.postmortem_open_s"] = h.stage("cluster.postmortem_open", func() error {
				b, err := cluster.OpenPostMortem(dir)
				if err == nil && brokerEvents(b) != int64(es.n) {
					err = fmt.Errorf("post-mortem view holds %d of %d events", brokerEvents(b), es.n)
				}
				return err
			})
		}
		h.removeDir(dir)
	}
}

// live: the streaming aggregator alone.
func (r *replays) live() {
	es := r.es
	agg := live.NewAggregator(live.AggregatorOptions{})
	r.out["live.ingest_ns_per_event"] = r.perEvent(r.h.stage("live.ingest", func() error {
		for _, name := range es.topics {
			for _, m := range es.metas[name] {
				agg.IngestEvent(name, 0, m)
			}
		}
		return nil
	}))
	r.out["live.snapshot_ms"] = 1e3 * r.h.stage("live.snapshot", func() error {
		if sum := agg.Snapshot(); sum.Events != int64(es.n) {
			return fmt.Errorf("aggregator saw %d of %d events", sum.Events, es.n)
		}
		return nil
	})
}

// darshan: the binary log codec over the source runs' logs.
func (r *replays) darshan() {
	var encoded [][]byte
	var segments int64
	r.out["darshan.write_s"] = r.h.stage("darshan.write", func() error {
		for _, l := range r.es.logs {
			var buf bytes.Buffer
			if err := l.Write(&buf); err != nil {
				return err
			}
			encoded = append(encoded, buf.Bytes())
			segments += l.TotalDXTSegments()
		}
		return nil
	})
	r.out["darshan.read_s"] = r.h.stage("darshan.read", func() error {
		for _, b := range encoded {
			if _, err := darshan.ReadLog(bytes.NewReader(b)); err != nil {
				return err
			}
		}
		return nil
	})
	logBytes := 0
	for _, b := range encoded {
		logBytes += len(b)
	}
	r.out["darshan.log_bytes"] = float64(logBytes)
	r.out["darshan.dxt_segments"] = float64(segments)
}

// core: the JSONL export path, which no timed cycle takes, on the source
// run.
func (r *replays) core(art *core.RunArtifacts) {
	dir := r.h.newDir("rundir")
	defer r.h.removeDir(dir)
	r.out["core.writedir_s"] = r.h.stage("core.writedir", func() error { return art.WriteDir(dir) })
	r.out["core.loaddir_s"] = r.h.stage("core.loaddir", func() error {
		loaded, err := core.LoadDir(dir)
		if err == nil && brokerEvents(loaded.Broker) != int64(r.es.n) {
			err = fmt.Errorf("run dir holds %d of %d events", brokerEvents(loaded.Broker), r.es.n)
		}
		return err
	})
}
