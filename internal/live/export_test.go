package live

import (
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
)

// IngestIOSegment feeds one I/O trace segment (worker label, byte length,
// end time) into the windows and the bandwidth-collapse detector without
// touching the cumulative counter totals, so a test can place segments one
// at a time.
func (a *Aggregator) IngestIOSegment(worker string, bytes int64, end float64) {
	a.mu.Lock()
	a.raise(a.ingestIOSegmentLocked(worker, bytes, end))
}

// ingestOne feeds one event's stored metadata through the topic's chunk
// path, as a chunk of one event of partition part.
func (a *Aggregator) ingestOne(topic string, part int, metadata []byte) error {
	return readerOf(topic).events(a, part, []mofka.Event{{Metadata: metadata}})
}

// subscribers counts the aggregator's anomaly subscribers, OnAnomaly
// callbacks included.
func (a *Aggregator) subscribers() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.subs)
}

// subscribers counts the tailer's anomaly subscribers.
func (t *WALTailer) subscribers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.subs)
}

// ParseAnomaly decodes the metadata of an anomalies-topic event.
func ParseAnomaly(m mofka.Metadata) Anomaly {
	return Anomaly{
		Kind:    provenance.Str(m, "kind"),
		Subject: provenance.Str(m, "subject"),
		At:      provenance.Num(m, "at"),
		Value:   provenance.Num(m, "value"),
		Limit:   provenance.Num(m, "limit"),
		Detail:  provenance.Str(m, "detail"),
	}
}
