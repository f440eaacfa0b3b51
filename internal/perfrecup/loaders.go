// Package perfrecup is the reproduction of PERFRECUP, the paper's
// multisource data aggregation, analysis, and visualization engine: it
// loads performance data produced by many layers (Darshan logs, Mofka task
// provenance topics, job metadata) into uniform dataframes ("views"), fuses
// them on shared identifiers (hostname, pthread ID, timestamps), and
// produces the paper's tables and figures.
package perfrecup

import (
	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/perfrecup/frame"
	"taskprov/internal/provenance"
)

// ExecutionsView tabulates task executions: one row per executed task with
// its placement, thread, window, and output size.
func ExecutionsView(art *core.RunArtifacts) (*frame.Frame, error) {
	recs, err := provenance.Drain(art.Broker, provenance.TopicExecutions, provenance.DecodeExecution)
	if err != nil {
		return nil, err
	}
	n := len(recs)
	key := make([]string, n)
	prefix := make([]string, n)
	group := make([]string, n)
	worker := make([]string, n)
	host := make([]string, n)
	tid := make([]int64, n)
	start := make([]float64, n)
	stop := make([]float64, n)
	dur := make([]float64, n)
	size := make([]int64, n)
	graph := make([]int64, n)
	for i, e := range recs {
		key[i] = string(e.Key)
		prefix[i] = dask.KeyPrefix(e.Key)
		group[i] = dask.KeyGroup(e.Key)
		worker[i] = e.Worker
		host[i] = e.Hostname
		tid[i] = int64(e.ThreadID)
		start[i] = e.Start.Seconds()
		stop[i] = e.Stop.Seconds()
		dur[i] = (e.Stop - e.Start).Seconds()
		size[i] = e.OutputSize
		graph[i] = int64(e.GraphID)
	}
	return frame.New(
		frame.Strings("key", key...),
		frame.Strings("prefix", prefix...),
		frame.Strings("group", group...),
		frame.Strings("worker", worker...),
		frame.Strings("hostname", host...),
		frame.Ints("thread_id", tid...),
		frame.Floats("start", start...),
		frame.Floats("stop", stop...),
		frame.Floats("duration", dur...),
		frame.Ints("output_size", size...),
		frame.Ints("graph_id", graph...),
	)
}

// TransitionsView tabulates every captured state transition.
func TransitionsView(art *core.RunArtifacts) (*frame.Frame, error) {
	recs, err := provenance.Drain(art.Broker, provenance.TopicTransitions, provenance.DecodeTransition)
	if err != nil {
		return nil, err
	}
	n := len(recs)
	key := make([]string, n)
	from := make([]string, n)
	to := make([]string, n)
	stim := make([]string, n)
	loc := make([]string, n)
	at := make([]float64, n)
	for i, t := range recs {
		key[i] = string(t.Key)
		from[i] = string(t.From)
		to[i] = string(t.To)
		stim[i] = t.Stimulus
		loc[i] = t.Location
		at[i] = t.At.Seconds()
	}
	return frame.New(
		frame.Strings("key", key...),
		frame.Strings("from", from...),
		frame.Strings("to", to...),
		frame.Strings("stimulus", stim...),
		frame.Strings("location", loc...),
		frame.Floats("at", at...),
	)
}

// TransfersView tabulates inter-worker dependency transfers.
func TransfersView(art *core.RunArtifacts) (*frame.Frame, error) {
	recs, err := provenance.Drain(art.Broker, provenance.TopicTransfers, provenance.DecodeTransfer)
	if err != nil {
		return nil, err
	}
	n := len(recs)
	key := make([]string, n)
	from := make([]string, n)
	to := make([]string, n)
	bytes := make([]int64, n)
	start := make([]float64, n)
	stop := make([]float64, n)
	dur := make([]float64, n)
	same := make([]bool, n)
	viaProxy := make([]bool, n)
	resolve := make([]float64, n)
	for i, t := range recs {
		key[i] = string(t.Key)
		from[i] = t.From
		to[i] = t.To
		bytes[i] = t.Bytes
		start[i] = t.Start.Seconds()
		stop[i] = t.Stop.Seconds()
		dur[i] = (t.Stop - t.Start).Seconds()
		same[i] = t.SameNode
		viaProxy[i] = t.ViaProxy
		resolve[i] = t.ResolveLatency.Seconds()
	}
	return frame.New(
		frame.Strings("key", key...),
		frame.Strings("from", from...),
		frame.Strings("to", to...),
		frame.Ints("bytes", bytes...),
		frame.Floats("start", start...),
		frame.Floats("stop", stop...),
		frame.Floats("duration", dur...),
		frame.Bools("same_node", same...),
		frame.Bools("via_proxy", viaProxy...),
		frame.Floats("resolve_latency", resolve...),
	)
}

// ProxyView tabulates the pass-by-reference data-plane events: one row per
// proxy-store operation (publish, resolve, miss, free, reclaim) with the
// blob's logical size and the store's resident footprint after the
// operation — the raw series behind the live resident-bytes lane.
func ProxyView(art *core.RunArtifacts) (*frame.Frame, error) {
	recs, err := provenance.Drain(art.Broker, provenance.TopicProxy, provenance.DecodeProxyEvent)
	if err != nil {
		return nil, err
	}
	n := len(recs)
	op := make([]string, n)
	key := make([]string, n)
	worker := make([]string, n)
	bytes := make([]int64, n)
	resident := make([]int64, n)
	resolve := make([]float64, n)
	at := make([]float64, n)
	for i, e := range recs {
		op[i] = e.Op
		key[i] = string(e.Key)
		worker[i] = e.Worker
		bytes[i] = e.Bytes
		resident[i] = e.Resident
		resolve[i] = e.ResolveLatency.Seconds()
		at[i] = e.At.Seconds()
	}
	return frame.New(
		frame.Strings("op", op...),
		frame.Strings("key", key...),
		frame.Strings("worker", worker...),
		frame.Ints("bytes", bytes...),
		frame.Ints("resident", resident...),
		frame.Floats("resolve_latency", resolve...),
		frame.Floats("at", at...),
	)
}

// WarningsView tabulates runtime warnings (unresponsive event loop, GC).
func WarningsView(art *core.RunArtifacts) (*frame.Frame, error) {
	recs, err := provenance.Drain(art.Broker, provenance.TopicWarnings, provenance.DecodeWarning)
	if err != nil {
		return nil, err
	}
	n := len(recs)
	kind := make([]string, n)
	worker := make([]string, n)
	host := make([]string, n)
	at := make([]float64, n)
	dur := make([]float64, n)
	for i, w := range recs {
		kind[i] = string(w.Kind)
		worker[i] = w.Worker
		host[i] = w.Hostname
		at[i] = w.At.Seconds()
		dur[i] = w.Duration.Seconds()
	}
	return frame.New(
		frame.Strings("kind", kind...),
		frame.Strings("worker", worker...),
		frame.Strings("hostname", host...),
		frame.Floats("at", at...),
		frame.Floats("duration", dur...),
	)
}

// DXTView tabulates every Darshan DXT trace segment across the run's
// per-worker logs, with the pthread ID join key the paper adds.
func DXTView(art *core.RunArtifacts) (*frame.Frame, error) {
	var rank []int64
	var host, path, op []string
	var tid, offset, length []int64
	var start, end, dur []float64
	for _, l := range art.DarshanLogs {
		for _, rec := range l.Records {
			for _, s := range rec.DXT {
				rank = append(rank, int64(l.Job.Rank))
				host = append(host, l.Job.Hostname)
				path = append(path, rec.Path)
				op = append(op, s.Op.String())
				tid = append(tid, int64(s.TID))
				offset = append(offset, s.Offset)
				length = append(length, s.Length)
				start = append(start, s.Start)
				end = append(end, s.End)
				dur = append(dur, s.End-s.Start)
			}
		}
	}
	return frame.New(
		frame.Ints("rank", rank...),
		frame.Strings("hostname", host...),
		frame.Strings("path", path...),
		frame.Strings("op", op...),
		frame.Ints("thread_id", tid...),
		frame.Ints("offset", offset...),
		frame.Ints("length", length...),
		frame.Floats("start", start...),
		frame.Floats("end", end...),
		frame.Floats("duration", dur...),
	)
}

// PosixView tabulates the per-file POSIX counter records.
func PosixView(art *core.RunArtifacts) (*frame.Frame, error) {
	var rank []int64
	var host, path []string
	var opens, reads, writes, bytesRead, bytesWritten []int64
	var readTime, writeTime, metaTime []float64
	for _, l := range art.DarshanLogs {
		for _, rec := range l.Records {
			rank = append(rank, int64(l.Job.Rank))
			host = append(host, l.Job.Hostname)
			path = append(path, rec.Path)
			opens = append(opens, rec.Counters.Opens)
			reads = append(reads, rec.Counters.Reads)
			writes = append(writes, rec.Counters.Writes)
			bytesRead = append(bytesRead, rec.Counters.BytesRead)
			bytesWritten = append(bytesWritten, rec.Counters.BytesWritten)
			readTime = append(readTime, rec.Counters.ReadTime)
			writeTime = append(writeTime, rec.Counters.WriteTime)
			metaTime = append(metaTime, rec.Counters.MetaTime)
		}
	}
	return frame.New(
		frame.Ints("rank", rank...),
		frame.Strings("hostname", host...),
		frame.Strings("path", path...),
		frame.Ints("opens", opens...),
		frame.Ints("reads", reads...),
		frame.Ints("writes", writes...),
		frame.Ints("bytes_read", bytesRead...),
		frame.Ints("bytes_written", bytesWritten...),
		frame.Floats("read_time", readTime...),
		frame.Floats("write_time", writeTime...),
		frame.Floats("meta_time", metaTime...),
	)
}

// TaskMetaView tabulates the static task metadata (key, prefix, group,
// graph, dependency count).
func TaskMetaView(art *core.RunArtifacts) (*frame.Frame, error) {
	recs, err := provenance.Drain(art.Broker, provenance.TopicTaskMeta, provenance.DecodeTaskMeta)
	if err != nil {
		return nil, err
	}
	n := len(recs)
	key := make([]string, n)
	prefix := make([]string, n)
	group := make([]string, n)
	graph := make([]int64, n)
	ndeps := make([]int64, n)
	at := make([]float64, n)
	for i, tm := range recs {
		key[i] = string(tm.Key)
		prefix[i] = tm.Prefix
		group[i] = tm.Group
		graph[i] = int64(tm.GraphID)
		ndeps[i] = int64(len(tm.Deps))
		at[i] = tm.At.Seconds()
	}
	return frame.New(
		frame.Strings("key", key...),
		frame.Strings("prefix", prefix...),
		frame.Strings("group", group...),
		frame.Ints("graph_id", graph...),
		frame.Ints("n_deps", ndeps...),
		frame.Floats("submitted", at...),
	)
}

// HeartbeatsView tabulates worker heartbeat samples.
func HeartbeatsView(art *core.RunArtifacts) (*frame.Frame, error) {
	recs, err := provenance.Drain(art.Broker, provenance.TopicHeartbeats, provenance.DecodeHeartbeat)
	if err != nil {
		return nil, err
	}
	n := len(recs)
	worker := make([]string, n)
	at := make([]float64, n)
	mem := make([]int64, n)
	execing := make([]int64, n)
	ready := make([]int64, n)
	for i, h := range recs {
		worker[i] = h.Worker
		at[i] = h.At.Seconds()
		mem[i] = h.Memory
		execing[i] = int64(h.Executing)
		ready[i] = int64(h.Ready)
	}
	return frame.New(
		frame.Strings("worker", worker...),
		frame.Floats("at", at...),
		frame.Ints("memory", mem...),
		frame.Ints("executing", execing...),
		frame.Ints("ready", ready...),
	)
}

// WorkerUtilizationView aggregates the heartbeat stream per worker: mean
// executing threads, mean ready backlog, and mean/peak memory — the
// dashboard-style utilization summary built from the paper's worker
// heartbeat samples.
func WorkerUtilizationView(art *core.RunArtifacts) (*frame.Frame, error) {
	hb, err := HeartbeatsView(art)
	if err != nil {
		return nil, err
	}
	if hb.NRows() == 0 {
		return frame.New(
			frame.Strings("worker"),
			frame.Floats("mean_executing"),
			frame.Floats("mean_ready"),
			frame.Floats("mean_memory"),
			frame.Floats("peak_memory"),
			frame.Ints("samples"),
		)
	}
	return hb.GroupBy("worker").Agg(
		frame.Agg{Col: "executing", Fn: frame.Mean, As: "mean_executing"},
		frame.Agg{Col: "ready", Fn: frame.Mean, As: "mean_ready"},
		frame.Agg{Col: "memory", Fn: frame.Mean, As: "mean_memory"},
		frame.Agg{Col: "memory", Fn: frame.Max, As: "peak_memory"},
		frame.Agg{Col: "at", Fn: frame.Count, As: "samples"},
	), nil
}
