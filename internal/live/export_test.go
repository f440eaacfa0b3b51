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

// ParseAnomaly decodes metadata written by Anomaly.Event.
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
