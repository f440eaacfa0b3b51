package core

import (
	"fmt"

	"taskprov/internal/mofka"
	"taskprov/internal/posixio"
	"taskprov/internal/provenance"
)

// OnlineIOTracer implements the paper's future-work plan to "shift to
// capturing Darshan records and pushing them to Mofka at runtime to have a
// fully online system": it wraps a per-worker posixio.Tracer (normally the
// Darshan runtime) and additionally streams every POSIX operation as a
// Mofka event the moment it completes, so in-situ consumers see I/O
// activity without waiting for the post-mortem log.
type OnlineIOTracer struct {
	inner    posixio.Tracer
	producer *mofka.Producer
	rank     int
	hostname string
	buf      []byte // reused encode buffer; the tracer runs on the simulation goroutine
}

// NewOnlineIOTracer wraps inner (which may be nil for stream-only tracing)
// with a live Mofka feed on broker's provenance.TopicIOTrace topic.
func NewOnlineIOTracer(broker *mofka.Broker, opts mofka.ProducerOptions, inner posixio.Tracer, rank int, hostname string) (*OnlineIOTracer, error) {
	t, err := broker.OpenOrCreateTopic(mofka.TopicConfig{Name: provenance.TopicIOTrace, Partitions: 2})
	if err != nil {
		return nil, fmt.Errorf("core: online tracer topic: %w", err)
	}
	return &OnlineIOTracer{
		inner:    inner,
		producer: t.NewProducer(opts),
		rank:     rank,
		hostname: hostname,
	}, nil
}

var _ posixio.Tracer = (*OnlineIOTracer)(nil)

func (o *OnlineIOTracer) push(op string, rec posixio.OpRecord) {
	o.buf = provenance.AppendIOTrace(o.buf[:0], provenance.IOTrace{
		Op: op, Rank: o.rank, Hostname: o.hostname,
		Path: rec.Path, ThreadID: rec.TID, Offset: rec.Offset, Bytes: rec.Bytes,
		Start: rec.Start, End: rec.End,
	})
	if err := o.producer.PushRaw(o.buf, nil); err != nil {
		panic(fmt.Sprintf("core: online io trace push: %v", err))
	}
}

// OpenEvent implements posixio.Tracer.
func (o *OnlineIOTracer) OpenEvent(rec posixio.OpRecord, created bool) {
	if o.inner != nil {
		o.inner.OpenEvent(rec, created)
	}
	op := "open"
	if created {
		op = "create"
	}
	o.push(op, rec)
}

// ReadEvent implements posixio.Tracer.
func (o *OnlineIOTracer) ReadEvent(rec posixio.OpRecord) {
	if o.inner != nil {
		o.inner.ReadEvent(rec)
	}
	o.push("read", rec)
}

// WriteEvent implements posixio.Tracer.
func (o *OnlineIOTracer) WriteEvent(rec posixio.OpRecord) {
	if o.inner != nil {
		o.inner.WriteEvent(rec)
	}
	o.push("write", rec)
}

// CloseEvent implements posixio.Tracer.
func (o *OnlineIOTracer) CloseEvent(rec posixio.OpRecord) {
	if o.inner != nil {
		o.inner.CloseEvent(rec)
	}
	o.push("close", rec)
}

// Flush ships pending trace batches.
func (o *OnlineIOTracer) Flush() error { return o.producer.Flush() }
