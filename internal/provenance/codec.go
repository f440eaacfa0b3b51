package provenance

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"taskprov/internal/dask"
	"taskprov/internal/sim"
)

// The typed codec: Append<T> writes a record's canonical JSON onto a buffer
// and Decoder.<T> reads it back, neither touching map[string]any or reflect.
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
// Decoder.<T> is Parse<T> composed with mofka.DecodeMetadata: an absent
// member or one of the wrong type leaves the zero value, unknown members are
// skipped, the last of duplicate members wins, and numbers go through float64
// exactly as they do by way of a decoded map. Malformed JSON is an error.

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

// AppendString appends s as a JSON string, escaped as encoding/json does
// (HTML escaping on).
func AppendString(dst []byte, s string) []byte {
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

// AppendFloat appends f in encoding/json's float64 form. Like
// Metadata.Encode it panics on NaN and infinities, which no virtual time is.
func AppendFloat(dst []byte, f float64) []byte {
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
		return AppendFloat(dst, t.Seconds())
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
		dst = AppendString(dst, string(d))
	}
	dst = append(dst, `],"graph_id":`...)
	dst = strconv.AppendInt(dst, int64(m.GraphID), 10)
	dst = append(dst, `,"group":`...)
	dst = AppendString(dst, m.Group)
	dst = append(dst, `,"key":`...)
	dst = AppendString(dst, string(m.Key))
	dst = append(dst, `,"prefix":`...)
	dst = AppendString(dst, m.Prefix)
	return append(dst, '}')
}

// AppendTransition appends t's canonical event metadata to dst.
func AppendTransition(dst []byte, t dask.Transition) []byte {
	dst = append(dst, `{"at":`...)
	dst = appendSeconds(dst, t.At)
	dst = append(dst, `,"from":`...)
	dst = AppendString(dst, string(t.From))
	dst = append(dst, `,"key":`...)
	dst = AppendString(dst, string(t.Key))
	dst = append(dst, `,"location":`...)
	dst = AppendString(dst, t.Location)
	dst = append(dst, `,"stimulus":`...)
	dst = AppendString(dst, t.Stimulus)
	dst = append(dst, `,"to":`...)
	dst = AppendString(dst, string(t.To))
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
			dst = AppendString(dst, f.Path)
			dst = append(dst, `,"size_after":`...)
			dst = strconv.AppendInt(dst, f.SizeAfter, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, `],`...)
	}
	dst = append(dst, `"graph_id":`...)
	dst = strconv.AppendInt(dst, int64(e.GraphID), 10)
	dst = append(dst, `,"hostname":`...)
	dst = AppendString(dst, e.Hostname)
	dst = append(dst, `,"key":`...)
	dst = AppendString(dst, string(e.Key))
	dst = append(dst, `,"output_size":`...)
	dst = strconv.AppendInt(dst, e.OutputSize, 10)
	dst = append(dst, `,"start":`...)
	dst = appendSeconds(dst, e.Start)
	dst = append(dst, `,"stop":`...)
	dst = appendSeconds(dst, e.Stop)
	dst = append(dst, `,"thread_id":`...)
	dst = strconv.AppendUint(dst, e.ThreadID, 10)
	dst = append(dst, `,"worker":`...)
	dst = AppendString(dst, e.Worker)
	return append(dst, '}')
}

// AppendTransfer appends t's canonical event metadata to dst. The proxy
// dimensions ride along only when the transfer went through the proxy store.
func AppendTransfer(dst []byte, t dask.Transfer) []byte {
	dst = append(dst, `{"bytes":`...)
	dst = strconv.AppendInt(dst, t.Bytes, 10)
	dst = append(dst, `,"from":`...)
	dst = AppendString(dst, t.From)
	dst = append(dst, `,"key":`...)
	dst = AppendString(dst, string(t.Key))
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
	dst = AppendString(dst, t.To)
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
	dst = AppendString(dst, string(e.Key))
	dst = append(dst, `,"op":`...)
	dst = AppendString(dst, e.Op)
	dst = append(dst, `,"resident":`...)
	dst = strconv.AppendInt(dst, e.Resident, 10)
	dst = append(dst, `,"resolve_latency":`...)
	dst = appendSeconds(dst, e.ResolveLatency)
	dst = append(dst, `,"worker":`...)
	dst = AppendString(dst, e.Worker)
	return append(dst, '}')
}

// AppendWarning appends w's canonical event metadata to dst.
func AppendWarning(dst []byte, w dask.Warning) []byte {
	dst = append(dst, `{"at":`...)
	dst = appendSeconds(dst, w.At)
	dst = append(dst, `,"duration":`...)
	dst = appendSeconds(dst, w.Duration)
	dst = append(dst, `,"hostname":`...)
	dst = AppendString(dst, w.Hostname)
	dst = append(dst, `,"kind":`...)
	dst = AppendString(dst, string(w.Kind))
	dst = append(dst, `,"message":`...)
	dst = AppendString(dst, w.Message)
	dst = append(dst, `,"worker":`...)
	dst = AppendString(dst, w.Worker)
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
	dst = AppendString(dst, m.Worker)
	return append(dst, '}')
}

// AppendSteal appends s's canonical event metadata to dst.
func AppendSteal(dst []byte, s dask.StealEvent) []byte {
	dst = append(dst, `{"at":`...)
	dst = appendSeconds(dst, s.At)
	dst = append(dst, `,"key":`...)
	dst = AppendString(dst, string(s.Key))
	dst = append(dst, `,"thief":`...)
	dst = AppendString(dst, s.Thief)
	dst = append(dst, `,"victim":`...)
	dst = AppendString(dst, s.Victim)
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
		dst = AppendString(dst, e.Detail)
	}
	if e.Duplicate != "" {
		dst = append(dst, `,"duplicate":`...)
		dst = AppendString(dst, e.Duplicate)
	}
	if e.Key != "" {
		dst = append(dst, `,"key":`...)
		dst = AppendString(dst, string(e.Key))
	}
	dst = append(dst, `,"kind":`...)
	dst = AppendString(dst, e.Kind)
	if e.Primary != "" {
		dst = append(dst, `,"primary":`...)
		dst = AppendString(dst, e.Primary)
	}
	if e.Wasted != 0 {
		dst = append(dst, `,"wasted":`...)
		dst = appendSeconds(dst, e.Wasted)
	}
	if e.Winner != "" {
		dst = append(dst, `,"winner":`...)
		dst = AppendString(dst, e.Winner)
	}
	return append(dst, '}')
}

// AppendGraphEvent appends g's canonical event metadata to dst.
func AppendGraphEvent(dst []byte, g GraphEvent) []byte {
	dst = append(dst, `{"at":`...)
	dst = AppendFloat(dst, g.At)
	dst = append(dst, `,"event":`...)
	dst = AppendString(dst, g.Event)
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
	dst = AppendString(dst, r.Hostname)
	dst = append(dst, `,"offset":`...)
	dst = strconv.AppendInt(dst, r.Offset, 10)
	dst = append(dst, `,"op":`...)
	dst = AppendString(dst, r.Op)
	dst = append(dst, `,"path":`...)
	dst = AppendString(dst, r.Path)
	dst = append(dst, `,"rank":`...)
	dst = strconv.AppendInt(dst, int64(r.Rank), 10)
	dst = append(dst, `,"start":`...)
	dst = appendSeconds(dst, r.Start)
	dst = append(dst, `,"thread_id":`...)
	dst = strconv.AppendUint(dst, r.ThreadID, 10)
	return append(dst, '}')
}

// ---- decoding ----

// Decoder reads stored event metadata into typed records, one method per
// record type. A string that names something — a task key or dependency, a
// worker or host address, a state, stimulus, location, prefix, group, kind,
// op or path — borrows the input: it is a string over the very bytes it was
// decoded from, so reading a run's events copies no name. Only a name that
// had to be unescaped (an escape, or invalid UTF-8 replaced by U+FFFD) is a
// copy, made from the decoder's scratch. Free text (Warning.Message,
// SpeculationEvent.Detail) is copied every time.
//
// The contract that makes borrowing safe is the caller's: nothing may write
// to the bytes a record was decoded from while the record, or any name taken
// from it, is in use. The broker's stored documents are never written once
// stored (mofka.Partition.Scan), a PullBatch or a remote Pull returns fresh
// copies that nobody else holds, and a reader that keeps a name past the
// bytes' owner — the live aggregator's map keys — copies it
// (strings.Clone). Never decode from a buffer that is refilled afterwards.
//
// A TaskMeta's Deps is a window of an arena the decoder owns: a 3-index
// slice, so appending to it copies, over an array that is never written
// where a record can see it — a full one is left to the records that hold
// it, and the decoder starts a fresh one. Copying a Decoder value shares its
// arena; use only one of the copies afterwards.
//
// A Decoder keeps only its unescape scratch and that arena between events,
// so any number of them may read one topic side by side, one per goroutine;
// the zero value is ready to use. A Decoder is not safe for concurrent use.
type Decoder struct {
	d    dec
	deps []dask.TaskKey
}

// depsArena is how many dependencies one array of a decoder's arena holds,
// unless a single task has more.
const depsArena = 512

// begin points the decoder's cursor at one document, keeping the unescape
// scratch.
func (x *Decoder) begin(b []byte) *dec {
	x.d = dec{b: b, buf: x.d.buf}
	return &x.d
}

func (d *dec) seconds() sim.Time { return sim.Seconds(d.num()) }

// TaskMeta decodes metadata written by AppendTaskMeta.
func (x *Decoder) TaskMeta(b []byte) (dask.TaskMeta, error) {
	var m dask.TaskMeta
	d := x.begin(b)
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "key":
			m.Key = dask.TaskKey(d.ident())
		case "prefix":
			m.Prefix = d.ident()
		case "group":
			m.Group = d.ident()
		case "graph_id":
			m.GraphID = int(d.num())
		case "deps":
			m.Deps = nil
			if d.open('[') {
				start := len(x.deps)
				for d.more(']') {
					if s, ok := d.identOK(); ok {
						if len(x.deps) == cap(x.deps) {
							n := len(x.deps) - start
							fresh := make([]dask.TaskKey, n, max(depsArena, 2*n))
							copy(fresh, x.deps[start:])
							x.deps, start = fresh, 0
						}
						x.deps = append(x.deps, dask.TaskKey(s))
					}
				}
				if n := len(x.deps); n > start {
					m.Deps = x.deps[start:n:n]
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

// Transition decodes metadata written by AppendTransition.
func (x *Decoder) Transition(b []byte) (dask.Transition, error) {
	var t dask.Transition
	d := x.begin(b)
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "key":
			t.Key = dask.TaskKey(d.ident())
		case "from":
			t.From = dask.TaskState(d.ident())
		case "to":
			t.To = dask.TaskState(d.ident())
		case "stimulus":
			t.Stimulus = d.ident()
		case "location":
			t.Location = d.ident()
		case "at":
			t.At = d.seconds()
		default:
			d.skip()
		}
	}
	return t, d.end()
}

// Execution decodes metadata written by AppendExecution.
func (x *Decoder) Execution(b []byte) (dask.TaskExecution, error) {
	var e dask.TaskExecution
	d := x.begin(b)
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "key":
			e.Key = dask.TaskKey(d.ident())
		case "worker":
			e.Worker = d.ident()
		case "hostname":
			e.Hostname = d.ident()
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
							f.Path = d.ident()
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

// Transfer decodes metadata written by AppendTransfer.
func (x *Decoder) Transfer(b []byte) (dask.Transfer, error) {
	var t dask.Transfer
	d := x.begin(b)
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "key":
			t.Key = dask.TaskKey(d.ident())
		case "from":
			t.From = d.ident()
		case "to":
			t.To = d.ident()
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

// ProxyEvent decodes metadata written by AppendProxyEvent.
func (x *Decoder) ProxyEvent(b []byte) (dask.ProxyEvent, error) {
	var e dask.ProxyEvent
	d := x.begin(b)
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "op":
			e.Op = d.ident()
		case "key":
			e.Key = dask.TaskKey(d.ident())
		case "worker":
			e.Worker = d.ident()
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

// Warning decodes metadata written by AppendWarning.
func (x *Decoder) Warning(b []byte) (dask.Warning, error) {
	var w dask.Warning
	d := x.begin(b)
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "kind":
			w.Kind = dask.WarningKind(d.ident())
		case "worker":
			w.Worker = d.ident()
		case "hostname":
			w.Hostname = d.ident()
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

// Heartbeat decodes metadata written by AppendHeartbeat.
func (x *Decoder) Heartbeat(b []byte) (dask.WorkerMetrics, error) {
	var m dask.WorkerMetrics
	d := x.begin(b)
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "worker":
			m.Worker = d.ident()
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

// Steal decodes metadata written by AppendSteal.
func (x *Decoder) Steal(b []byte) (dask.StealEvent, error) {
	var s dask.StealEvent
	d := x.begin(b)
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "key":
			s.Key = dask.TaskKey(d.ident())
		case "victim":
			s.Victim = d.ident()
		case "thief":
			s.Thief = d.ident()
		case "at":
			s.At = d.seconds()
		default:
			d.skip()
		}
	}
	return s, d.end()
}

// Speculation decodes metadata written by AppendSpeculation.
func (x *Decoder) Speculation(b []byte) (dask.SpeculationEvent, error) {
	var e dask.SpeculationEvent
	d := x.begin(b)
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "kind":
			e.Kind = d.ident()
		case "key":
			e.Key = dask.TaskKey(d.ident())
		case "primary":
			e.Primary = d.ident()
		case "duplicate":
			e.Duplicate = d.ident()
		case "winner":
			e.Winner = d.ident()
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

// GraphEvent decodes metadata written by AppendGraphEvent.
func (x *Decoder) GraphEvent(b []byte) (GraphEvent, error) {
	var g GraphEvent
	d := x.begin(b)
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "graph_id":
			g.GraphID = int(d.num())
		case "event":
			g.Event = d.ident()
		case "at":
			g.At = d.num()
		default:
			d.skip()
		}
	}
	return g, d.end()
}

// IOTrace decodes metadata written by AppendIOTrace.
func (x *Decoder) IOTrace(b []byte) (IOTrace, error) {
	var r IOTrace
	d := x.begin(b)
	for ok := d.top(); ok && d.more('}'); {
		switch string(d.key()) {
		case "op":
			r.Op = d.ident()
		case "rank":
			r.Rank = int(d.num())
		case "hostname":
			r.Hostname = d.ident()
		case "path":
			r.Path = d.ident()
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

// Validate accepts exactly the metadata every record method accepts — a JSON
// object or null with nothing after it — without building a record: the check
// for a consumer that only counts a topic's events.
func (x *Decoder) Validate(b []byte) error {
	d := x.begin(b)
	for ok := d.top(); ok && d.more('}'); {
		d.key()
		d.skip()
	}
	return d.end()
}
