package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"
)

// Source is anything the HTTP server can serve: a Monitor attached to an
// in-process broker, a WALTailer following a data dir, or the Aggregator
// ReplayService filled from a mofkad.
type Source interface {
	Snapshot() Summary
	// SubscribeAnomalies returns the anomalies raised from now on, and the
	// function that ends the subscription.
	SubscribeAnomalies() (<-chan Anomaly, func())
}

// Server exposes a Source over HTTP:
//
//	GET /snapshot   one consistent Summary as JSON
//	GET /metrics    Prometheus text exposition of the same aggregates
//	GET /events     SSE stream: periodic "snapshot" events plus an
//	                "anomaly" event per online finding
//	GET /healthz    liveness probe
type Server struct {
	src Source
	mux *http.ServeMux
	srv *http.Server
	ln  net.Listener
}

// NewServer builds the server's routes without binding a port; Serve binds
// one.
func NewServer(src Source) *Server {
	s := &Server{src: src, mux: http.NewServeMux()}
	s.mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = fmt.Fprintln(w, "ok")
	})
	return s
}

// Serve binds addr (e.g. "127.0.0.1:0") and serves in the background.
func Serve(addr string, src Source) (*Server, error) {
	s := NewServer(src)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	go func() { _ = s.srv.Serve(ln) }() // Serve always returns on Close
	return s, nil
}

// Addr returns the bound address ("" before Serve).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.src.Snapshot()) // client gone mid-write is fine
}

// minEventsInterval is the shortest /events snapshot interval served: each
// snapshot takes the aggregator's lock, and a stream of them in a tight
// loop would stall the monitor's ingest.
const minEventsInterval = 10 * time.Millisecond

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	interval := time.Second
	if v := r.URL.Query().Get("interval"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < minEventsInterval {
			http.Error(w, fmt.Sprintf("interval %q: want a duration of at least %v", v, minEventsInterval), http.StatusBadRequest)
			return
		}
		interval = d
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	anoms, unsubscribe := s.src.SubscribeAnomalies()
	defer unsubscribe()
	send := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !send("snapshot", s.src.Snapshot()) {
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case a := <-anoms:
			if !send("anomaly", a) {
				return
			}
		case <-tick.C:
			if !send("snapshot", s.src.Snapshot()) {
				return
			}
		}
	}
}

// handleMetrics renders the snapshot in Prometheus text exposition format
// (all series sorted, so scrapes diff cleanly).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.src.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder

	counter := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}
	counter("taskprov_live_events_total", "Provenance events ingested.", snap.Events)
	counter("taskprov_live_tasks_total", "Task executions observed.", snap.Tasks)
	counter("taskprov_live_transitions_total", "Task state transitions observed.", snap.Transitions)
	counter("taskprov_live_transfers_total", "Dependency transfers observed.", snap.Transfers)
	counter("taskprov_live_transfer_bytes_total", "Bytes moved by dependency transfers.", snap.TransferBytes)
	counter("taskprov_live_io_ops_total", "POSIX I/O operations (Darshan).", snap.IOOps)
	counter("taskprov_live_io_bytes_total", "POSIX I/O bytes (Darshan).", snap.IOBytes)
	counter("taskprov_live_graphs_done_total", "Task graphs completed.", snap.GraphsDone)

	fmt.Fprintf(&b, "# HELP taskprov_live_phase_seconds Cumulative per-thread-slot phase time (Fig. 3 online).\n# TYPE taskprov_live_phase_seconds gauge\n")
	fmt.Fprintf(&b, "taskprov_live_phase_seconds{phase=\"io\"} %g\n", snap.IOSeconds)
	fmt.Fprintf(&b, "taskprov_live_phase_seconds{phase=\"comm\"} %g\n", snap.CommSeconds)
	fmt.Fprintf(&b, "taskprov_live_phase_seconds{phase=\"compute\"} %g\n", snap.ComputeSeconds)

	fmt.Fprintf(&b, "# HELP taskprov_live_critical_path_seconds Heaviest dependency chain of observed task time — a live makespan lower bound.\n# TYPE taskprov_live_critical_path_seconds gauge\n")
	fmt.Fprintf(&b, "taskprov_live_critical_path_seconds %g\n", snap.CriticalPathSeconds)

	if len(snap.StateOccupancy) > 0 {
		fmt.Fprintf(&b, "# HELP taskprov_live_state_occupancy Tasks currently in each scheduler state.\n# TYPE taskprov_live_state_occupancy gauge\n")
		for _, st := range sortedKeys(snap.StateOccupancy) {
			fmt.Fprintf(&b, "taskprov_live_state_occupancy{state=%q} %d\n", escapeLabel(st), snap.StateOccupancy[st])
		}
	}
	if len(snap.Groups) > 0 {
		fmt.Fprintf(&b, "# HELP taskprov_live_group_tasks_total Tasks finished per task group.\n# TYPE taskprov_live_group_tasks_total counter\n")
		for _, g := range sortedKeys(snap.Groups) {
			fmt.Fprintf(&b, "taskprov_live_group_tasks_total{group=%q} %d\n", escapeLabel(g), snap.Groups[g].Count)
		}
		fmt.Fprintf(&b, "# HELP taskprov_live_group_duration_seconds Task duration quantiles per group.\n# TYPE taskprov_live_group_duration_seconds summary\n")
		for _, g := range sortedKeys(snap.Groups) {
			gs := snap.Groups[g]
			eg := escapeLabel(g)
			fmt.Fprintf(&b, "taskprov_live_group_duration_seconds{group=%q,quantile=\"0.5\"} %g\n", eg, gs.P50Seconds)
			fmt.Fprintf(&b, "taskprov_live_group_duration_seconds{group=%q,quantile=\"0.9\"} %g\n", eg, gs.P90Seconds)
			fmt.Fprintf(&b, "taskprov_live_group_duration_seconds{group=%q,quantile=\"0.99\"} %g\n", eg, gs.P99Seconds)
			fmt.Fprintf(&b, "taskprov_live_group_duration_seconds_sum{group=%q} %g\n", eg, gs.TotalSeconds)
			fmt.Fprintf(&b, "taskprov_live_group_duration_seconds_count{group=%q} %d\n", eg, gs.Count)
		}
	}
	if len(snap.Warnings) > 0 {
		fmt.Fprintf(&b, "# HELP taskprov_live_warnings_total Runtime warnings per kind.\n# TYPE taskprov_live_warnings_total counter\n")
		for _, k := range sortedKeys(snap.Warnings) {
			fmt.Fprintf(&b, "taskprov_live_warnings_total{kind=%q} %d\n", escapeLabel(k), snap.Warnings[k])
		}
	}
	if len(snap.Workers) > 0 {
		fmt.Fprintf(&b, "# HELP taskprov_live_worker_exec_seconds Cumulative execution time per worker.\n# TYPE taskprov_live_worker_exec_seconds gauge\n")
		for _, wk := range sortedKeys(snap.Workers) {
			fmt.Fprintf(&b, "taskprov_live_worker_exec_seconds{worker=%q} %g\n", escapeLabel(wk), snap.Workers[wk].ExecSeconds)
		}
	}
	if len(snap.HostIO) > 0 {
		fmt.Fprintf(&b, "# HELP taskprov_live_host_io_bandwidth_bps POSIX bytes moved per second of I/O time, per host.\n# TYPE taskprov_live_host_io_bandwidth_bps gauge\n")
		for _, h := range sortedKeys(snap.HostIO) {
			fmt.Fprintf(&b, "taskprov_live_host_io_bandwidth_bps{host=%q} %g\n", escapeLabel(h), snap.HostIO[h].BandwidthBps)
		}
	}
	if len(snap.ConsumerLag) > 0 {
		fmt.Fprintf(&b, "# HELP taskprov_live_consumer_lag Events appended but not yet ingested by the monitor, per topic/partition.\n# TYPE taskprov_live_consumer_lag gauge\n")
		for _, key := range sortedKeys(snap.ConsumerLag) {
			topic, part := key, ""
			if i := strings.LastIndex(key, "/"); i >= 0 {
				topic, part = key[:i], key[i+1:]
			}
			fmt.Fprintf(&b, "taskprov_live_consumer_lag{topic=%q,partition=%q} %d\n",
				escapeLabel(topic), escapeLabel(part), snap.ConsumerLag[key])
		}
	}
	if len(snap.ClusterHealth) > 0 {
		byKind := map[string]int{}
		for _, ev := range snap.ClusterHealth {
			byKind[ev.Kind]++
		}
		fmt.Fprintf(&b, "# HELP taskprov_live_cluster_events_total Mofka cluster replication/failover events per kind.\n# TYPE taskprov_live_cluster_events_total counter\n")
		for _, k := range sortedKeys(byKind) {
			fmt.Fprintf(&b, "taskprov_live_cluster_events_total{kind=%q} %d\n", escapeLabel(k), byKind[k])
		}
	}
	if len(snap.Anomalies) > 0 {
		byKind := map[string]int{}
		for _, a := range snap.Anomalies {
			byKind[a.Kind]++
		}
		fmt.Fprintf(&b, "# HELP taskprov_live_anomalies_total Online anomaly findings per kind.\n# TYPE taskprov_live_anomalies_total counter\n")
		for _, k := range sortedKeys(byKind) {
			fmt.Fprintf(&b, "taskprov_live_anomalies_total{kind=%q} %d\n", escapeLabel(k), byKind[k])
		}
	}
	_, _ = w.Write([]byte(b.String())) // client gone mid-write is fine
}

// escapeLabel sanitizes a Prometheus label value (the %q wrapping handles
// quotes and backslashes; newlines must not survive).
func escapeLabel(v string) string {
	return strings.ReplaceAll(v, "\n", " ")
}
