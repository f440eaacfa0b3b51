// Package provenance defines the wire format of the WMS provenance stream:
// the Mofka topic names the collection plugins produce into, and the codec
// that turns the dask record types into Mofka event metadata and back.
//
// The codec comes twice. codec.go holds the typed pair every producer and
// consumer in the repository uses — Append<T> onto a reusable buffer and
// Decoder.<T> straight from the stored bytes (records.go serves a broker's
// topics, each decoded on several goroutines). This file holds the map pair it replaced —
// <T>Event builders of mofka.Metadata and Parse<T> over a decoded map — which
// has no production caller left: it is the executable specification the codec
// tests pin the typed pair to, byte for byte, and the API bench/e2e (a module
// of its own) compiles against.
//
// It is deliberately a leaf package (no dependency on internal/core or
// internal/perfrecup) so that every consumer of the stream — the in-run
// collector, the post-mortem PERFRECUP loaders, and the live monitoring
// subsystem (internal/live) — shares exactly one definition of the event
// schema. internal/core re-exports the topic names.
package provenance

import (
	"fmt"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/sim"
)

// Mofka topic names used by the provenance plugins.
const (
	TopicTaskMeta    = "task-meta"
	TopicTransitions = "task-transitions"
	TopicExecutions  = "task-executions"
	TopicTransfers   = "transfers"
	TopicWarnings    = "warnings"
	TopicHeartbeats  = "heartbeats"
	TopicSteals      = "steals"
	TopicGraphs      = "graph-events"

	// TopicProxy carries pass-by-reference data-plane operations: blob
	// publishes, reference resolutions (with demand-to-arrival latency),
	// misses on dangling references, frees, and crash reclaims.
	TopicProxy = "proxy-store"

	// TopicSpeculation carries hedged-execution decisions: duplicate
	// launches, first-completion wins, loser cancellations (with wasted
	// seconds), failed duplicates, and promotions.
	TopicSpeculation = "speculation"

	// TopicAnomalies carries the live monitor's online findings back into
	// the event space, so anomalies are themselves provenance (see
	// internal/live).
	TopicAnomalies = "anomalies"
)

// AllTopics lists every topic the collection plugins produce into. It does
// NOT include TopicAnomalies, which is produced by the live monitor, not the
// WMS plugins.
func AllTopics() []string {
	return []string{
		TopicTaskMeta, TopicTransitions, TopicExecutions, TopicTransfers,
		TopicWarnings, TopicHeartbeats, TopicSteals, TopicGraphs, TopicProxy,
		TopicSpeculation,
	}
}

// seconds renders a virtual time as float seconds for event metadata.
func seconds(t sim.Time) float64 { return t.Seconds() }

// TaskMetaEvent encodes a TaskMeta as Mofka event metadata.
func TaskMetaEvent(m dask.TaskMeta) mofka.Metadata {
	deps := make([]any, len(m.Deps))
	for i, d := range m.Deps {
		deps[i] = string(d)
	}
	return mofka.Metadata{
		"key": string(m.Key), "prefix": m.Prefix, "group": m.Group,
		"graph_id": m.GraphID, "deps": deps, "at": seconds(m.At),
	}
}

// TransitionEvent encodes a Transition as Mofka event metadata.
func TransitionEvent(t dask.Transition) mofka.Metadata {
	return mofka.Metadata{
		"key": string(t.Key), "from": string(t.From), "to": string(t.To),
		"stimulus": t.Stimulus, "location": t.Location, "at": seconds(t.At),
	}
}

// ExecutionEvent encodes a TaskExecution as Mofka event metadata. File
// effects ride along only when the body wrote files, keeping compute-only
// streams byte-identical to earlier runs.
func ExecutionEvent(e dask.TaskExecution) mofka.Metadata {
	m := mofka.Metadata{
		"key": string(e.Key), "worker": e.Worker, "hostname": e.Hostname,
		"thread_id": e.ThreadID, "start": seconds(e.Start), "stop": seconds(e.Stop),
		"output_size": e.OutputSize, "graph_id": e.GraphID,
	}
	if len(e.Files) > 0 {
		files := make([]any, len(e.Files))
		for i, f := range e.Files {
			files[i] = map[string]any{"path": f.Path, "size_after": f.SizeAfter}
		}
		m["files"] = files
	}
	return m
}

// TransferEvent encodes a Transfer as Mofka event metadata. The proxy
// dimensions ride along only when set, keeping direct-plane streams
// byte-identical to pre-proxy runs.
func TransferEvent(t dask.Transfer) mofka.Metadata {
	m := mofka.Metadata{
		"key": string(t.Key), "from": t.From, "to": t.To, "bytes": t.Bytes,
		"start": seconds(t.Start), "stop": seconds(t.Stop), "same_node": t.SameNode,
	}
	if t.ViaProxy {
		m["via_proxy"] = true
		m["resolve_latency"] = seconds(t.ResolveLatency)
	}
	return m
}

// ProxyEventMeta encodes a ProxyEvent as Mofka event metadata.
func ProxyEventMeta(e dask.ProxyEvent) mofka.Metadata {
	return mofka.Metadata{
		"op": e.Op, "key": string(e.Key), "worker": e.Worker,
		"bytes": e.Bytes, "resident": e.Resident,
		"resolve_latency": seconds(e.ResolveLatency), "at": seconds(e.At),
	}
}

// WarningEvent encodes a Warning as Mofka event metadata.
func WarningEvent(w dask.Warning) mofka.Metadata {
	return mofka.Metadata{
		"kind": string(w.Kind), "worker": w.Worker, "hostname": w.Hostname,
		"at": seconds(w.At), "duration": seconds(w.Duration), "message": w.Message,
	}
}

// HeartbeatEvent encodes a WorkerMetrics sample as Mofka event metadata.
func HeartbeatEvent(m dask.WorkerMetrics) mofka.Metadata {
	return mofka.Metadata{
		"worker": m.Worker, "at": seconds(m.At), "memory": m.Memory,
		"executing": m.Executing, "ready": m.Ready,
	}
}

// StealEventMeta encodes a StealEvent as Mofka event metadata.
func StealEventMeta(s dask.StealEvent) mofka.Metadata {
	return mofka.Metadata{
		"key": string(s.Key), "victim": s.Victim, "thief": s.Thief, "at": seconds(s.At),
	}
}

// SpeculationEventMeta encodes a SpeculationEvent as Mofka event metadata.
// Optional dimensions ride along only when set, so the stream layout is
// stable per event kind.
func SpeculationEventMeta(e dask.SpeculationEvent) mofka.Metadata {
	m := mofka.Metadata{"kind": e.Kind, "at": seconds(e.At)}
	if e.Key != "" {
		m["key"] = string(e.Key)
	}
	if e.Primary != "" {
		m["primary"] = e.Primary
	}
	if e.Duplicate != "" {
		m["duplicate"] = e.Duplicate
	}
	if e.Winner != "" {
		m["winner"] = e.Winner
	}
	if e.Wasted != 0 {
		m["wasted"] = seconds(e.Wasted)
	}
	if e.Detail != "" {
		m["detail"] = e.Detail
	}
	return m
}

// GraphDoneEvent encodes a graph completion as Mofka event metadata.
func GraphDoneEvent(graphID int, at sim.Time) mofka.Metadata {
	return mofka.Metadata{"graph_id": graphID, "event": "done", "at": seconds(at)}
}

// ---- decoding ----

// Str extracts a string field from event metadata ("" when absent).
func Str(m mofka.Metadata, k string) string {
	s, _ := m[k].(string)
	return s
}

// Num extracts a numeric field from event metadata (0 when absent).
func Num(m mofka.Metadata, k string) float64 {
	switch v := m[k].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case uint64:
		return float64(v)
	default:
		return 0
	}
}

// ParseTransition decodes metadata written by TransitionEvent.
func ParseTransition(m mofka.Metadata) dask.Transition {
	return dask.Transition{
		Key:      dask.TaskKey(Str(m, "key")),
		From:     dask.TaskState(Str(m, "from")),
		To:       dask.TaskState(Str(m, "to")),
		Stimulus: Str(m, "stimulus"),
		Location: Str(m, "location"),
		At:       sim.Seconds(Num(m, "at")),
	}
}

// ParseExecution decodes metadata written by ExecutionEvent.
func ParseExecution(m mofka.Metadata) dask.TaskExecution {
	var files []dask.FileEffect
	if raw, ok := m["files"].([]any); ok {
		for _, f := range raw {
			if fm, ok := f.(map[string]any); ok {
				files = append(files, dask.FileEffect{
					Path:      Str(fm, "path"),
					SizeAfter: int64(Num(fm, "size_after")),
				})
			}
		}
	}
	return dask.TaskExecution{
		Key:        dask.TaskKey(Str(m, "key")),
		Worker:     Str(m, "worker"),
		Hostname:   Str(m, "hostname"),
		ThreadID:   uint64(Num(m, "thread_id")),
		Start:      sim.Seconds(Num(m, "start")),
		Stop:       sim.Seconds(Num(m, "stop")),
		OutputSize: int64(Num(m, "output_size")),
		GraphID:    int(Num(m, "graph_id")),
		Files:      files,
	}
}

// ParseTransfer decodes metadata written by TransferEvent.
func ParseTransfer(m mofka.Metadata) dask.Transfer {
	sameNode, _ := m["same_node"].(bool)
	viaProxy, _ := m["via_proxy"].(bool)
	return dask.Transfer{
		Key:            dask.TaskKey(Str(m, "key")),
		From:           Str(m, "from"),
		To:             Str(m, "to"),
		Bytes:          int64(Num(m, "bytes")),
		Start:          sim.Seconds(Num(m, "start")),
		Stop:           sim.Seconds(Num(m, "stop")),
		SameNode:       sameNode,
		ViaProxy:       viaProxy,
		ResolveLatency: sim.Seconds(Num(m, "resolve_latency")),
	}
}

// ParseProxyEvent decodes metadata written by ProxyEventMeta.
func ParseProxyEvent(m mofka.Metadata) dask.ProxyEvent {
	return dask.ProxyEvent{
		Op:             Str(m, "op"),
		Key:            dask.TaskKey(Str(m, "key")),
		Worker:         Str(m, "worker"),
		Bytes:          int64(Num(m, "bytes")),
		Resident:       int64(Num(m, "resident")),
		ResolveLatency: sim.Seconds(Num(m, "resolve_latency")),
		At:             sim.Seconds(Num(m, "at")),
	}
}

// ParseWarning decodes metadata written by WarningEvent.
func ParseWarning(m mofka.Metadata) dask.Warning {
	return dask.Warning{
		Kind:     dask.WarningKind(Str(m, "kind")),
		Worker:   Str(m, "worker"),
		Hostname: Str(m, "hostname"),
		At:       sim.Seconds(Num(m, "at")),
		Duration: sim.Seconds(Num(m, "duration")),
		Message:  Str(m, "message"),
	}
}

// ParseTaskMeta decodes metadata written by TaskMetaEvent.
func ParseTaskMeta(m mofka.Metadata) dask.TaskMeta {
	var deps []dask.TaskKey
	if raw, ok := m["deps"].([]any); ok {
		for _, d := range raw {
			if s, ok := d.(string); ok {
				deps = append(deps, dask.TaskKey(s))
			}
		}
	}
	return dask.TaskMeta{
		Key:     dask.TaskKey(Str(m, "key")),
		Prefix:  Str(m, "prefix"),
		Group:   Str(m, "group"),
		GraphID: int(Num(m, "graph_id")),
		Deps:    deps,
		At:      sim.Seconds(Num(m, "at")),
	}
}

// ParseHeartbeat decodes metadata written by HeartbeatEvent.
func ParseHeartbeat(m mofka.Metadata) dask.WorkerMetrics {
	return dask.WorkerMetrics{
		Worker:    Str(m, "worker"),
		At:        sim.Seconds(Num(m, "at")),
		Memory:    int64(Num(m, "memory")),
		Executing: int(Num(m, "executing")),
		Ready:     int(Num(m, "ready")),
	}
}

// ParseSteal decodes metadata written by StealEventMeta.
func ParseSteal(m mofka.Metadata) dask.StealEvent {
	return dask.StealEvent{
		Key:    dask.TaskKey(Str(m, "key")),
		Victim: Str(m, "victim"),
		Thief:  Str(m, "thief"),
		At:     sim.Seconds(Num(m, "at")),
	}
}

// ParseSpeculationEvent decodes metadata written by SpeculationEventMeta.
func ParseSpeculationEvent(m mofka.Metadata) dask.SpeculationEvent {
	return dask.SpeculationEvent{
		Kind:      Str(m, "kind"),
		Key:       dask.TaskKey(Str(m, "key")),
		Primary:   Str(m, "primary"),
		Duplicate: Str(m, "duplicate"),
		Winner:    Str(m, "winner"),
		Wasted:    sim.Seconds(Num(m, "wasted")),
		Detail:    Str(m, "detail"),
		At:        sim.Seconds(Num(m, "at")),
	}
}

// MustParse asserts an event's metadata decodes, panicking with context on
// corruption (events are produced by this same module).
func MustParse(ev mofka.Event) mofka.Metadata {
	m, err := ev.ParseMetadata()
	if err != nil {
		panic(fmt.Sprintf("provenance: corrupt event %s[%d]/%d: %v", ev.Topic, ev.Partition, ev.ID, err))
	}
	return m
}
