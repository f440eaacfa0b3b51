package provenance

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/sim"
)

// The typed codec: Append<T> writes a record's canonical JSON onto a buffer
// and Decode<T> reads it back, neither touching map[string]any or reflect.
//
// Canonical means exactly the bytes json.Marshal emits for the mofka.Metadata
// the <T>Event builders above construct — members sorted by name, strings
// escaped by encoding/json's rules with HTML escaping on, floats in its
// shortest form — so a stream written by either encoder is byte for byte the
// same. The map builders have no production caller left; they stay as the
// executable specification the codec tests pin the encoders to (and because
// bench/e2e, a module this repo's changes may not edit, compiles against
// them).
//
// Decode<T> is Parse<T> composed with mofka.DecodeMetadata: an absent member
// or one of the wrong type leaves the zero value, unknown members are skipped,
// the last of duplicate members wins, and numbers go through float64 exactly
// as they do by way of a decoded map. Malformed JSON is an error.

// GraphEvent is one record of the graph-events topic. At stays the stored
// float of virtual seconds rather than a sim.Time: the consumers compare it
// with other float seconds, and the float-to-Time conversion truncates.
type GraphEvent struct {
	GraphID int
	Event   string
	At      float64
}

// GraphDone is the Event value of a graph completion.
const GraphDone = "done"

// IOTrace is one record of the io-trace topic: a POSIX operation the online
// I/O tracer streamed the moment it completed.
type IOTrace struct {
	Op       string // "create", "open", "read", "write" or "close"
	Rank     int
	Hostname string
	Path     string
	ThreadID uint64
	Offset   int64
	Bytes    int64
	Start    sim.Time
	End      sim.Time
}

// ---- encoding ----

const hexDigits = "0123456789abcdef"

// plain marks the ASCII bytes encoding/json copies into a string unescaped
// (HTML escaping on).
var plain = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends s as a JSON string, escaped as encoding/json does.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if plain[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		// U+2028 and U+2029 are valid JSON but break JSONP.
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f in encoding/json's float64 form. Like
// Metadata.Encode it panics on NaN and infinities, which no virtual time is.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic(fmt.Sprintf("provenance: unencodable float %v", f))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendSeconds appends a virtual time as float seconds. From a microsecond
// up to 2^52 ns (fifty-two days) the shortest decimal that reads back as
// float64(t)/1e9 is t's own nanosecond decimal with trailing zeros cut — two
// decimals of at most nine places lie further apart than a float64 step
// there — so the digits are written directly; other times take appendFloat.
func appendSeconds(dst []byte, t sim.Time) []byte {
	if t < 1000 || t >= 1<<52 {
		if t == 0 {
			return append(dst, '0')
		}
		return appendFloat(dst, t.Seconds())
	}
	const second = int64(sim.Second)
	dst = strconv.AppendInt(dst, int64(t)/second, 10)
	frac := int64(t) % second
	if frac == 0 {
		return dst
	}
	var digits [10]byte
	digits[0] = '.'
	n := len(digits)
	for i := n - 1; i > 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	for digits[n-1] == '0' {
		n--
	}
	return append(dst, digits[:n]...)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// AppendTaskMeta appends m's canonical event metadata to dst.
func AppendTaskMeta(dst []byte, m dask.TaskMeta) []byte {
	dst = append(dst, `{"at":`...)
	dst = appendSeconds(dst, m.At)
	dst = append(dst, `,"deps":[`...)
	for i, d := range m.Deps {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, string(d))
	}
	dst = append(dst, `],"graph_id":`...)
	dst = strconv.AppendInt(dst, int64(m.GraphID), 10)
	dst = append(dst, `,"group":`...)
	dst = appendString(dst, m.Group)
	dst = append(dst, `,"key":`...)
	dst = appendString(dst, string(m.Key))
	dst = append(dst, `,"prefix":`...)
	dst = appendString(dst, m.Prefix)
	return append(dst, '}')
}

// AppendTransition appends t's canonical event metadata to dst.
func AppendTransition(dst []byte, t dask.Transition) []byte {
	dst = append(dst, `{"at":`...)
	dst = appendSeconds(dst, t.At)
	dst = append(dst, `,"from":`...)
	dst = appendString(dst, string(t.From))
	dst = append(dst, `,"key":`...)
	dst = appendString(dst, string(t.Key))
	dst = append(dst, `,"location":`...)
	dst = appendString(dst, t.Location)
	dst = append(dst, `,"stimulus":`...)
	dst = appendString(dst, t.Stimulus)
	dst = append(dst, `,"to":`...)
	dst = appendString(dst, string(t.To))
	return append(dst, '}')
}

// AppendExecution appends e's canonical event metadata to dst. File effects
// ride along only when the body wrote files.
func AppendExecution(dst []byte, e dask.TaskExecution) []byte {
	dst = append(dst, '{')
	if len(e.Files) > 0 {
		dst = append(dst, `"files":[`...)
		for i, f := range e.Files {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"path":`...)
			dst = appendString(dst, f.Path)
			dst = append(dst, `,"size_after":`...)
			dst = strconv.AppendInt(dst, f.SizeAfter, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, `],`...)
	}
	dst = append(dst, `"graph_id":`...)
	dst = strconv.AppendInt(dst, int64(e.GraphID), 10)
	dst = append(dst, `,"hostname":`...)
	dst = appendString(dst, e.Hostname)
	dst = append(dst, `,"key":`...)
	dst = appendString(dst, string(e.Key))
	dst = append(dst, `,"output_size":`...)
	dst = strconv.AppendInt(dst, e.OutputSize, 10)
	dst = append(dst, `,"start":`...)
	dst = appendSeconds(dst, e.Start)
	dst = append(dst, `,"stop":`...)
	dst = appendSeconds(dst, e.Stop)
	dst = append(dst, `,"thread_id":`...)
	dst = strconv.AppendUint(dst, e.ThreadID, 10)
	dst = append(dst, `,"worker":`...)
	dst = appendString(dst, e.Worker)
	return append(dst, '}')
}

// AppendTransfer appends t's canonical event metadata to dst. The proxy
// dimensions ride along only when the transfer went through the proxy store.
func AppendTransfer(dst []byte, t dask.Transfer) []byte {
	dst = append(dst, `{"bytes":`...)
	dst = strconv.AppendInt(dst, t.Bytes, 10)
	dst = append(dst, `,"from":`...)
	dst = appendString(dst, t.From)
	dst = append(dst, `,"key":`...)
	dst = appendString(dst, string(t.Key))
	if t.ViaProxy {
		dst = append(dst, `,"resolve_latency":`...)
		dst = appendSeconds(dst, t.ResolveLatency)
	}
	dst = append(dst, `,"same_node":`...)
	dst = appendBool(dst, t.SameNode)
	dst = append(dst, `,"start":`...)
	dst = appendSeconds(dst, t.Start)
	dst = append(dst, `,"stop":`...)
	dst = appendSeconds(dst, t.Stop)
	dst = append(dst, `,"to":`...)
	dst = appendString(dst, t.To)
	if t.ViaProxy {
		dst = append(dst, `,"via_proxy":true`...)
	}
	return append(dst, '}')
}

// AppendProxyEvent appends e's canonical event metadata to dst.
func AppendProxyEvent(dst []byte, e dask.ProxyEvent) []byte {
	dst = append(dst, `{"at":`...)
	dst = appendSeconds(dst, e.At)
	dst = append(dst, `,"bytes":`...)
	dst = strconv.AppendInt(dst, e.Bytes, 10)
	dst = append(dst, `,"key":`...)
	dst = appendString(dst, string(e.Key))
	dst = append(dst, `,"op":`...)
	dst = appendString(dst, e.Op)
	dst = append(dst, `,"resident":`...)
	dst = strconv.AppendInt(dst, e.Resident, 10)
	dst = append(dst, `,"resolve_latency":`...)
	dst = appendSeconds(dst, e.ResolveLatency)
	dst = append(dst, `,"worker":`...)
	dst = appendString(dst, e.Worker)
	return append(dst, '}')
}

// AppendWarning appends w's canonical event metadata to dst.
func AppendWarning(dst []byte, w dask.Warning) []byte {
	dst = append(dst, `{"at":`...)
	dst = appendSeconds(dst, w.At)
	dst = append(dst, `,"duration":`...)
	dst = appendSeconds(dst, w.Duration)
	dst = append(dst, `,"hostname":`...)
	dst = appendString(dst, w.Hostname)
	dst = append(dst, `,"kind":`...)
	dst = appendString(dst, string(w.Kind))
	dst = append(dst, `,"message":`...)
	dst = appendString(dst, w.Message)
	dst = append(dst, `,"worker":`...)
	dst = appendString(dst, w.Worker)
	return append(dst, '}')
}

// AppendHeartbeat appends m's canonical event metadata to dst.
func AppendHeartbeat(dst []byte, m dask.WorkerMetrics) []byte {
	dst = append(dst, `{"at":`...)
	dst = appendSeconds(dst, m.At)
	dst = append(dst, `,"executing":`...)
	dst = strconv.AppendInt(dst, int64(m.Executing), 10)
	dst = append(dst, `,"memory":`...)
	dst = strconv.AppendInt(dst, m.Memory, 10)
	dst = append(dst, `,"ready":`...)
	dst = strconv.AppendInt(dst, int64(m.Ready), 10)
	dst = append(dst, `,"worker":`...)
	dst = appendString(dst, m.Worker)
	return append(dst, '}')
}

// AppendSteal appends s's canonical event metadata to dst.
func AppendSteal(dst []byte, s dask.StealEvent) []byte {
	dst = append(dst, `{"at":`...)
	dst = appendSeconds(dst, s.At)
	dst = append(dst, `,"key":`...)
	dst = appendString(dst, string(s.Key))
	dst = append(dst, `,"thief":`...)
	dst = appendString(dst, s.Thief)
	dst = append(dst, `,"victim":`...)
	dst = appendString(dst, s.Victim)
	return append(dst, '}')
}

// AppendSpeculation appends e's canonical event metadata to dst. Optional
// dimensions ride along only when set.
func AppendSpeculation(dst []byte, e dask.SpeculationEvent) []byte {
	dst = append(dst, `{"at":`...)
	dst = appendSeconds(dst, e.At)
	if e.Attempt != 0 {
		dst = append(dst, `,"attempt":`...)
		dst = strconv.AppendInt(dst, int64(e.Attempt), 10)
	}
	if e.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = appendString(dst, e.Detail)
	}
	if e.Duplicate != "" {
		dst = append(dst, `,"duplicate":`...)
		dst = appendString(dst, e.Duplicate)
	}
	if e.Key != "" {
		dst = append(dst, `,"key":`...)
		dst = appendString(dst, string(e.Key))
	}
	dst = append(dst, `,"kind":`...)
	dst = appendString(dst, e.Kind)
	if e.Primary != "" {
		dst = append(dst, `,"primary":`...)
		dst = appendString(dst, e.Primary)
	}
	if e.Wasted != 0 {
		dst = append(dst, `,"wasted":`...)
		dst = appendSeconds(dst, e.Wasted)
	}
	if e.Winner != "" {
		dst = append(dst, `,"winner":`...)
		dst = appendString(dst, e.Winner)
	}
	return append(dst, '}')
}

// AppendGraphEvent appends g's canonical event metadata to dst.
func AppendGraphEvent(dst []byte, g GraphEvent) []byte {
	dst = append(dst, `{"at":`...)
	dst = appendFloat(dst, g.At)
	dst = append(dst, `,"event":`...)
	dst = appendString(dst, g.Event)
	dst = append(dst, `,"graph_id":`...)
	dst = strconv.AppendInt(dst, int64(g.GraphID), 10)
	return append(dst, '}')
}

// AppendIOTrace appends r's canonical event metadata to dst.
func AppendIOTrace(dst []byte, r IOTrace) []byte {
	dst = append(dst, `{"bytes":`...)
	dst = strconv.AppendInt(dst, r.Bytes, 10)
	dst = append(dst, `,"end":`...)
	dst = appendSeconds(dst, r.End)
	dst = append(dst, `,"hostname":`...)
	dst = appendString(dst, r.Hostname)
	dst = append(dst, `,"offset":`...)
	dst = strconv.AppendInt(dst, r.Offset, 10)
	dst = append(dst, `,"op":`...)
	dst = appendString(dst, r.Op)
	dst = append(dst, `,"path":`...)
	dst = appendString(dst, r.Path)
	dst = append(dst, `,"rank":`...)
	dst = strconv.AppendInt(dst, int64(r.Rank), 10)
	dst = append(dst, `,"start":`...)
	dst = appendSeconds(dst, r.Start)
	dst = append(dst, `,"thread_id":`...)
	dst = strconv.AppendUint(dst, r.ThreadID, 10)
	return append(dst, '}')
}

// ---- decoding ----

func (d *dec) seconds() sim.Time { return sim.Seconds(d.num()) }

// DecodeTaskMeta decodes metadata written by AppendTaskMeta.
func DecodeTaskMeta(b []byte) (dask.TaskMeta, error) {
	var m dask.TaskMeta
	d := dec{b: b}
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "key":
			m.Key = dask.TaskKey(d.str())
		case "prefix":
			m.Prefix = d.str()
		case "group":
			m.Group = d.str()
		case "graph_id":
			m.GraphID = int(d.num())
		case "deps":
			m.Deps = nil
			if d.open('[') {
				for d.more(']') {
					if s, ok := d.strOK(); ok {
						m.Deps = append(m.Deps, dask.TaskKey(s))
					}
				}
			}
		case "at":
			m.At = d.seconds()
		default:
			d.skip()
		}
	}
	return m, d.end()
}

// DecodeTransition decodes metadata written by AppendTransition.
func DecodeTransition(b []byte) (dask.Transition, error) {
	var t dask.Transition
	d := dec{b: b}
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "key":
			t.Key = dask.TaskKey(d.str())
		case "from":
			t.From = dask.TaskState(d.str())
		case "to":
			t.To = dask.TaskState(d.str())
		case "stimulus":
			t.Stimulus = d.str()
		case "location":
			t.Location = d.str()
		case "at":
			t.At = d.seconds()
		default:
			d.skip()
		}
	}
	return t, d.end()
}

// DecodeExecution decodes metadata written by AppendExecution.
func DecodeExecution(b []byte) (dask.TaskExecution, error) {
	var e dask.TaskExecution
	d := dec{b: b}
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "key":
			e.Key = dask.TaskKey(d.str())
		case "worker":
			e.Worker = d.str()
		case "hostname":
			e.Hostname = d.str()
		case "thread_id":
			e.ThreadID = uint64(d.num())
		case "start":
			e.Start = d.seconds()
		case "stop":
			e.Stop = d.seconds()
		case "output_size":
			e.OutputSize = int64(d.num())
		case "graph_id":
			e.GraphID = int(d.num())
		case "files":
			e.Files = nil
			if d.open('[') {
				for d.more(']') {
					if !d.open('{') {
						continue
					}
					var f dask.FileEffect
					for d.more('}') {
						switch string(d.key()) {
						case "path":
							f.Path = d.str()
						case "size_after":
							f.SizeAfter = int64(d.num())
						default:
							d.skip()
						}
					}
					e.Files = append(e.Files, f)
				}
			}
		default:
			d.skip()
		}
	}
	return e, d.end()
}

// DecodeTransfer decodes metadata written by AppendTransfer.
func DecodeTransfer(b []byte) (dask.Transfer, error) {
	var t dask.Transfer
	d := dec{b: b}
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "key":
			t.Key = dask.TaskKey(d.str())
		case "from":
			t.From = d.str()
		case "to":
			t.To = d.str()
		case "bytes":
			t.Bytes = int64(d.num())
		case "start":
			t.Start = d.seconds()
		case "stop":
			t.Stop = d.seconds()
		case "same_node":
			t.SameNode = d.boolean()
		case "via_proxy":
			t.ViaProxy = d.boolean()
		case "resolve_latency":
			t.ResolveLatency = d.seconds()
		default:
			d.skip()
		}
	}
	return t, d.end()
}

// DecodeProxyEvent decodes metadata written by AppendProxyEvent.
func DecodeProxyEvent(b []byte) (dask.ProxyEvent, error) {
	var e dask.ProxyEvent
	d := dec{b: b}
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "op":
			e.Op = d.str()
		case "key":
			e.Key = dask.TaskKey(d.str())
		case "worker":
			e.Worker = d.str()
		case "bytes":
			e.Bytes = int64(d.num())
		case "resident":
			e.Resident = int64(d.num())
		case "resolve_latency":
			e.ResolveLatency = d.seconds()
		case "at":
			e.At = d.seconds()
		default:
			d.skip()
		}
	}
	return e, d.end()
}

// DecodeWarning decodes metadata written by AppendWarning.
func DecodeWarning(b []byte) (dask.Warning, error) {
	var w dask.Warning
	d := dec{b: b}
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "kind":
			w.Kind = dask.WarningKind(d.str())
		case "worker":
			w.Worker = d.str()
		case "hostname":
			w.Hostname = d.str()
		case "at":
			w.At = d.seconds()
		case "duration":
			w.Duration = d.seconds()
		case "message":
			w.Message = d.str()
		default:
			d.skip()
		}
	}
	return w, d.end()
}

// DecodeHeartbeat decodes metadata written by AppendHeartbeat.
func DecodeHeartbeat(b []byte) (dask.WorkerMetrics, error) {
	var m dask.WorkerMetrics
	d := dec{b: b}
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "worker":
			m.Worker = d.str()
		case "at":
			m.At = d.seconds()
		case "memory":
			m.Memory = int64(d.num())
		case "executing":
			m.Executing = int(d.num())
		case "ready":
			m.Ready = int(d.num())
		default:
			d.skip()
		}
	}
	return m, d.end()
}

// DecodeSteal decodes metadata written by AppendSteal.
func DecodeSteal(b []byte) (dask.StealEvent, error) {
	var s dask.StealEvent
	d := dec{b: b}
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "key":
			s.Key = dask.TaskKey(d.str())
		case "victim":
			s.Victim = d.str()
		case "thief":
			s.Thief = d.str()
		case "at":
			s.At = d.seconds()
		default:
			d.skip()
		}
	}
	return s, d.end()
}

// DecodeSpeculation decodes metadata written by AppendSpeculation.
func DecodeSpeculation(b []byte) (dask.SpeculationEvent, error) {
	var e dask.SpeculationEvent
	d := dec{b: b}
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "kind":
			e.Kind = d.str()
		case "key":
			e.Key = dask.TaskKey(d.str())
		case "primary":
			e.Primary = d.str()
		case "duplicate":
			e.Duplicate = d.str()
		case "winner":
			e.Winner = d.str()
		case "wasted":
			e.Wasted = d.seconds()
		case "attempt":
			e.Attempt = int(d.num())
		case "detail":
			e.Detail = d.str()
		case "at":
			e.At = d.seconds()
		default:
			d.skip()
		}
	}
	return e, d.end()
}

// DecodeGraphEvent decodes metadata written by AppendGraphEvent.
func DecodeGraphEvent(b []byte) (GraphEvent, error) {
	var g GraphEvent
	d := dec{b: b}
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "graph_id":
			g.GraphID = int(d.num())
		case "event":
			g.Event = d.str()
		case "at":
			g.At = d.num()
		default:
			d.skip()
		}
	}
	return g, d.end()
}

// DecodeIOTrace decodes metadata written by AppendIOTrace.
func DecodeIOTrace(b []byte) (IOTrace, error) {
	var r IOTrace
	d := dec{b: b}
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "op":
			r.Op = d.str()
		case "rank":
			r.Rank = int(d.num())
		case "hostname":
			r.Hostname = d.str()
		case "path":
			r.Path = d.str()
		case "thread_id":
			r.ThreadID = uint64(d.num())
		case "offset":
			r.Offset = int64(d.num())
		case "bytes":
			r.Bytes = int64(d.num())
		case "start":
			r.Start = d.seconds()
		case "end":
			r.End = d.seconds()
		default:
			d.skip()
		}
	}
	return r, d.end()
}

// Validate accepts exactly the metadata every Decode<T> accepts — a JSON
// object or null with nothing after it — without building a record: the check
// for a consumer that only counts a topic's events.
func Validate(b []byte) error {
	d := dec{b: b}
	for ok := d.top(); ok && d.more('}'); {
		d.key()
		d.skip()
	}
	return d.end()
}

// Drain decodes every event of a topic, once, straight from the stored
// bytes, in the order a consumer's Drain delivers them.
func Drain[T any](b *mofka.Broker, topic string, decode func([]byte) (T, error)) ([]T, error) {
	t, err := b.OpenTopic(topic)
	if err != nil {
		return nil, err
	}
	c, err := t.NewConsumer(mofka.ConsumerOptions{NoData: true})
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, t.Events())
	err = c.Scan(func(partition int, id uint64, metadata []byte) error {
		rec, err := decode(metadata)
		if err != nil {
			return fmt.Errorf("provenance: corrupt event %s[%d]/%d: %w", topic, partition, id, err)
		}
		out = append(out, rec)
		return nil
	})
	return out, err
}
