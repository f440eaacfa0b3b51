package provenance

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/sim"
)

// codec is one record type's four functions: the typed pair under test and
// the map pair that specifies it.
type codec[T any] struct {
	name   string
	append func([]byte, T) []byte
	decode func([]byte) (T, error)
	event  func(T) mofka.Metadata
	parse  func(mofka.Metadata) T
}

var (
	taskMetaCodec    = codec[dask.TaskMeta]{"task-meta", AppendTaskMeta, DecodeTaskMeta, TaskMetaEvent, ParseTaskMeta}
	transitionCodec  = codec[dask.Transition]{"transition", AppendTransition, DecodeTransition, TransitionEvent, ParseTransition}
	executionCodec   = codec[dask.TaskExecution]{"execution", AppendExecution, DecodeExecution, ExecutionEvent, ParseExecution}
	transferCodec    = codec[dask.Transfer]{"transfer", AppendTransfer, DecodeTransfer, TransferEvent, ParseTransfer}
	proxyCodec       = codec[dask.ProxyEvent]{"proxy", AppendProxyEvent, DecodeProxyEvent, ProxyEventMeta, ParseProxyEvent}
	warningCodec     = codec[dask.Warning]{"warning", AppendWarning, DecodeWarning, WarningEvent, ParseWarning}
	heartbeatCodec   = codec[dask.WorkerMetrics]{"heartbeat", AppendHeartbeat, DecodeHeartbeat, HeartbeatEvent, ParseHeartbeat}
	stealCodec       = codec[dask.StealEvent]{"steal", AppendSteal, DecodeSteal, StealEventMeta, ParseSteal}
	speculationCodec = codec[dask.SpeculationEvent]{"speculation", AppendSpeculation, DecodeSpeculation, SpeculationEventMeta, ParseSpeculationEvent}
	graphCodec       = codec[GraphEvent]{"graph-event", AppendGraphEvent, DecodeGraphEvent,
		func(g GraphEvent) mofka.Metadata {
			return mofka.Metadata{"graph_id": g.GraphID, "event": g.Event, "at": g.At}
		},
		func(m mofka.Metadata) GraphEvent {
			return GraphEvent{GraphID: int(Num(m, "graph_id")), Event: Str(m, "event"), At: Num(m, "at")}
		}}
	// The online tracer's map form, as core.OnlineIOTracer built it before
	// the codec.
	ioTraceCodec = codec[IOTrace]{"io-trace", AppendIOTrace, DecodeIOTrace,
		func(r IOTrace) mofka.Metadata {
			return mofka.Metadata{
				"op": r.Op, "rank": r.Rank, "hostname": r.Hostname,
				"path": r.Path, "thread_id": r.ThreadID,
				"offset": r.Offset, "bytes": r.Bytes,
				"start": r.Start.Seconds(), "end": r.End.Seconds(),
			}
		},
		func(m mofka.Metadata) IOTrace {
			return IOTrace{
				Op: Str(m, "op"), Rank: int(Num(m, "rank")), Hostname: Str(m, "hostname"),
				Path: Str(m, "path"), ThreadID: uint64(Num(m, "thread_id")),
				Offset: int64(Num(m, "offset")), Bytes: int64(Num(m, "bytes")),
				Start: sim.Seconds(Num(m, "start")), End: sim.Seconds(Num(m, "end")),
			}
		}}
)

// Hostile field values: everything encoding/json escapes or rewrites, and
// numbers at the edges of its formats.
var (
	hostileStrings = []string{
		"", "plain", `quote " and \ backslash`, "<script>&amp;</script>",
		"ctl \x00\x01\b\f\n\r\t\x1f\x7f", "sep \u2028 and \u2029", "bad utf8 \xff\xfe\xc0\xaf tail",
		"truncated rune \xe2\x82", "日本語 ключ 🗝", `,"r":7,"o":0,"s":0}`, "('imread-0af3', 12)",
	}
	hostileTimes = []sim.Time{
		0, 1, 999, 1000, 1001, 123456789, sim.Second, sim.Second + 1, 1091797652072, 4323978233018,
		269752912500, 1<<52 - 1, 1 << 52, 1<<53 + 1, math.MaxInt64, -1, -1500, -3 * sim.Second, math.MinInt64,
		sim.Seconds(1e-7), sim.Seconds(0.1), sim.Seconds(86400 * 365),
	}
	hostileInts   = []int64{0, 1, -1, 1 << 31, 1<<53 - 1, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	hostileFloats = []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999e-7, 0.1, 1.5, 1e20, 1e21, 1.7976931348623157e308, 5e-324, -1e-7, -2.5, -1e21}
)

// pick draws field values round-robin from the hostile sets, so a run of
// records covers every value in every position.
type pick struct{ n int }

func (p *pick) str() string       { p.n++; return hostileStrings[p.n%len(hostileStrings)] }
func (p *pick) time() sim.Time    { p.n++; return hostileTimes[p.n%len(hostileTimes)] }
func (p *pick) int64() int64      { p.n++; return hostileInts[p.n%len(hostileInts)] }
func (p *pick) float() float64    { p.n++; return hostileFloats[p.n%len(hostileFloats)] }
func (p *pick) bool() bool        { p.n++; return p.n%3 == 0 }
func (p *pick) key() dask.TaskKey { return dask.TaskKey(p.str()) }

const hostileRounds = 64

func hostileTaskMetas() []dask.TaskMeta {
	var p pick
	out := []dask.TaskMeta{{}, {Deps: []dask.TaskKey{}}, {Key: "k", Deps: []dask.TaskKey{"only"}}}
	for i := 0; i < hostileRounds; i++ {
		m := dask.TaskMeta{Key: p.key(), Prefix: p.str(), Group: p.str(), GraphID: int(p.int64()), At: p.time()}
		for j := 0; j < i%4; j++ {
			m.Deps = append(m.Deps, p.key())
		}
		out = append(out, m)
	}
	return out
}

func hostileTransitions() []dask.Transition {
	var p pick
	out := []dask.Transition{{}}
	for i := 0; i < hostileRounds; i++ {
		out = append(out, dask.Transition{Key: p.key(), From: dask.TaskState(p.str()), To: dask.TaskState(p.str()),
			Stimulus: p.str(), Location: p.str(), At: p.time()})
	}
	return out
}

func hostileExecutions() []dask.TaskExecution {
	var p pick
	out := []dask.TaskExecution{{}, {Files: []dask.FileEffect{}}, {ThreadID: math.MaxUint64}, {ThreadID: 1<<53 + 1}}
	for i := 0; i < hostileRounds; i++ {
		e := dask.TaskExecution{Key: p.key(), Worker: p.str(), Hostname: p.str(), ThreadID: uint64(p.int64()),
			Start: p.time(), Stop: p.time(), OutputSize: p.int64(), GraphID: int(p.int64())}
		for j := 0; j < i%3; j++ {
			e.Files = append(e.Files, dask.FileEffect{Path: p.str(), SizeAfter: p.int64()})
		}
		out = append(out, e)
	}
	return out
}

func hostileTransfers() []dask.Transfer {
	var p pick
	out := []dask.Transfer{{}, {ViaProxy: true}, {ResolveLatency: sim.Second}, {ViaProxy: true, ResolveLatency: sim.Milliseconds(1)}}
	for i := 0; i < hostileRounds; i++ {
		out = append(out, dask.Transfer{Key: p.key(), From: p.str(), To: p.str(), Bytes: p.int64(),
			Start: p.time(), Stop: p.time(), SameNode: p.bool(), ViaProxy: i%2 == 0, ResolveLatency: p.time()})
	}
	return out
}

func hostileProxyEvents() []dask.ProxyEvent {
	var p pick
	out := []dask.ProxyEvent{{}}
	for i := 0; i < hostileRounds; i++ {
		out = append(out, dask.ProxyEvent{Op: p.str(), Key: p.key(), Worker: p.str(), Bytes: p.int64(),
			Resident: p.int64(), ResolveLatency: p.time(), At: p.time()})
	}
	return out
}

func hostileWarnings() []dask.Warning {
	var p pick
	out := []dask.Warning{{}}
	for i := 0; i < hostileRounds; i++ {
		out = append(out, dask.Warning{Kind: dask.WarningKind(p.str()), Worker: p.str(), Hostname: p.str(),
			At: p.time(), Duration: p.time(), Message: p.str()})
	}
	return out
}

func hostileHeartbeats() []dask.WorkerMetrics {
	var p pick
	out := []dask.WorkerMetrics{{}}
	for i := 0; i < hostileRounds; i++ {
		out = append(out, dask.WorkerMetrics{Worker: p.str(), At: p.time(), Memory: p.int64(),
			Executing: int(p.int64()), Ready: int(p.int64())})
	}
	return out
}

func hostileSteals() []dask.StealEvent {
	var p pick
	out := []dask.StealEvent{{}}
	for i := 0; i < hostileRounds; i++ {
		out = append(out, dask.StealEvent{Key: p.key(), Victim: p.str(), Thief: p.str(), At: p.time()})
	}
	return out
}

// speculationSubsets walks every subset of the seven optional dimensions,
// filling the set ones from fill.
func speculationSubsets(fill func(e *dask.SpeculationEvent)) []dask.SpeculationEvent {
	var out []dask.SpeculationEvent
	for mask := 0; mask < 1<<7; mask++ {
		var full, e dask.SpeculationEvent
		fill(&full)
		e.Kind, e.At = full.Kind, full.At
		if mask&1 != 0 {
			e.Key = full.Key
		}
		if mask&2 != 0 {
			e.Primary = full.Primary
		}
		if mask&4 != 0 {
			e.Duplicate = full.Duplicate
		}
		if mask&8 != 0 {
			e.Winner = full.Winner
		}
		if mask&16 != 0 {
			e.Wasted = full.Wasted
		}
		if mask&32 != 0 {
			e.Attempt = full.Attempt
		}
		if mask&64 != 0 {
			e.Detail = full.Detail
		}
		out = append(out, e)
	}
	return out
}

func hostileSpeculations() []dask.SpeculationEvent {
	var p pick
	return speculationSubsets(func(e *dask.SpeculationEvent) {
		*e = dask.SpeculationEvent{Kind: p.str(), Key: "k" + p.key(), Primary: "p" + p.str(), Duplicate: "d" + p.str(),
			Winner: "w" + p.str(), Wasted: p.time() | 1, Attempt: int(p.int64() | 1), Detail: "x" + p.str(), At: p.time()}
	})
}

func hostileGraphEvents() []GraphEvent {
	var p pick
	out := []GraphEvent{{}, {GraphID: 3, Event: GraphDone, At: 12.5}}
	for i := 0; i < hostileRounds; i++ {
		out = append(out, GraphEvent{GraphID: int(p.int64()), Event: p.str(), At: p.float()})
	}
	return out
}

func hostileIOTraces() []IOTrace {
	var p pick
	out := []IOTrace{{}, {ThreadID: math.MaxUint64}}
	for i := 0; i < hostileRounds; i++ {
		out = append(out, IOTrace{Op: p.str(), Rank: int(p.int64()), Hostname: p.str(), Path: p.str(),
			ThreadID: uint64(p.int64()), Offset: p.int64(), Bytes: p.int64(), Start: p.time(), End: p.time()})
	}
	return out
}

// checkCodec holds one type's typed pair to its map pair: the encoder byte
// for byte, the decoder record for record, on every given record.
func checkCodec[T any](t *testing.T, c codec[T], recs []T) {
	t.Run(c.name, func(t *testing.T) {
		var buf []byte
		for _, r := range recs {
			want := c.event(r).Encode()
			buf = c.append(buf[:0], r)
			if !bytes.Equal(buf, want) {
				t.Fatalf("%+v\nappend: %s\n   map: %s", r, buf, want)
			}
			got, err := c.decode(buf)
			if err != nil {
				t.Fatalf("decode %s: %v", buf, err)
			}
			m, err := mofka.DecodeMetadata(buf)
			if err != nil {
				t.Fatal(err)
			}
			if spec := c.parse(m); !reflect.DeepEqual(got, spec) {
				t.Fatalf("decode %s\n  typed: %+v\n    map: %+v", buf, got, spec)
			}
		}
	})
}

// TestCodecMatchesMapAPI is the byte-identity and decode-equivalence pin of
// every record type over hostile inputs.
func TestCodecMatchesMapAPI(t *testing.T) {
	checkCodec(t, taskMetaCodec, hostileTaskMetas())
	checkCodec(t, transitionCodec, hostileTransitions())
	checkCodec(t, executionCodec, hostileExecutions())
	checkCodec(t, transferCodec, hostileTransfers())
	checkCodec(t, proxyCodec, hostileProxyEvents())
	checkCodec(t, warningCodec, hostileWarnings())
	checkCodec(t, heartbeatCodec, hostileHeartbeats())
	checkCodec(t, stealCodec, hostileSteals())
	checkCodec(t, speculationCodec, hostileSpeculations())
	checkCodec(t, graphCodec, hostileGraphEvents())
	checkCodec(t, ioTraceCodec, hostileIOTraces())
}

// TestGraphDoneMatchesMapBuilder pins the one graph event the plugins emit
// to the builder bench/e2e still compiles against.
func TestGraphDoneMatchesMapBuilder(t *testing.T) {
	for _, at := range hostileTimes {
		got := AppendGraphEvent(nil, GraphEvent{GraphID: 7, Event: GraphDone, At: at.Seconds()})
		if want := GraphDoneEvent(7, at).Encode(); !bytes.Equal(got, want) {
			t.Fatalf("at %d: %s vs %s", at, got, want)
		}
	}
}

// roundTrip checks Decode(Append(r)) == r. Times must survive the float
// seconds form exactly here, so the table uses times that do.
func roundTrip[T any](t *testing.T, c codec[T], recs ...T) {
	t.Run(c.name, func(t *testing.T) {
		for _, r := range recs {
			b := c.append(nil, r)
			got, err := c.decode(b)
			if err != nil {
				t.Fatalf("decode %s: %v", b, err)
			}
			if !reflect.DeepEqual(got, r) {
				t.Fatalf("round trip of %s\n got: %+v\nwant: %+v", b, got, r)
			}
			if back := c.parse(c.event(r)); !reflect.DeepEqual(back, r) {
				t.Fatalf("map round trip of %+v: %+v", r, back)
			}
		}
	})
}

func mustDecode(t *testing.T, b []byte) mofka.Metadata {
	m, err := mofka.DecodeMetadata(b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCodecRoundTrip(t *testing.T) {
	s := sim.Seconds
	roundTrip(t, taskMetaCodec,
		dask.TaskMeta{},
		dask.TaskMeta{Key: "('x', 1)", Prefix: "x", Group: "x-g", GraphID: 2, At: s(1.5)},
		dask.TaskMeta{Key: "k", Deps: []dask.TaskKey{"a"}, At: s(3)},
		dask.TaskMeta{Key: "k", Deps: []dask.TaskKey{"a", `b"\`, "c<>&"}, GraphID: -4})
	roundTrip(t, transitionCodec,
		dask.Transition{},
		dask.Transition{Key: "k-1", From: "waiting", To: "processing", Stimulus: "ready", Location: "scheduler", At: s(1.5)})
	roundTrip(t, executionCodec,
		dask.TaskExecution{},
		dask.TaskExecution{Key: "k-1", Worker: "tcp://n:40000", Hostname: "n", ThreadID: 1001, Start: s(1), Stop: s(2), OutputSize: 77, GraphID: 3},
		dask.TaskExecution{Key: "k-1", Files: []dask.FileEffect{{Path: "/lus/out.bin", SizeAfter: 77}}},
		dask.TaskExecution{Key: "k-2", Files: []dask.FileEffect{{Path: "/a", SizeAfter: 1}, {}, {Path: "/ ", SizeAfter: 1 << 40}}})
	roundTrip(t, transferCodec,
		dask.Transfer{},
		dask.Transfer{Key: "k-1", From: "a", To: "b", Bytes: 123, Start: s(1), Stop: s(2), SameNode: true},
		dask.Transfer{Key: "k-2", From: "a", To: "b", Bytes: 1 << 20, Start: s(1), Stop: s(2), ViaProxy: true, ResolveLatency: sim.Milliseconds(35)},
		dask.Transfer{Key: "k-3", ViaProxy: true})
	roundTrip(t, proxyCodec,
		dask.ProxyEvent{},
		dask.ProxyEvent{Op: dask.ProxyOpResolve, Key: "k-2", Worker: "tcp://n:40001", Bytes: 1 << 20, Resident: 3 << 20, ResolveLatency: sim.Milliseconds(35), At: s(2)})
	roundTrip(t, warningCodec,
		dask.Warning{},
		dask.Warning{Kind: dask.WarnGC, Worker: "w", Hostname: "h", At: s(3), Duration: s(0.25), Message: "gc\ttook <long>"})
	roundTrip(t, heartbeatCodec,
		dask.WorkerMetrics{},
		dask.WorkerMetrics{Worker: "w", At: s(4), Memory: 5, Executing: 6, Ready: 7})
	roundTrip(t, stealCodec,
		dask.StealEvent{},
		dask.StealEvent{Key: "k", Victim: "v", Thief: "t", At: s(5)})
	roundTrip(t, speculationCodec, speculationSubsets(func(e *dask.SpeculationEvent) {
		*e = dask.SpeculationEvent{Kind: dask.SpecCancelled, Key: "k", Primary: "w1", Duplicate: "w2", Winner: "w2",
			Wasted: s(0.25), Attempt: 3, Detail: "lost the race", At: s(2)}
	})...)
	roundTrip(t, graphCodec, GraphEvent{}, GraphEvent{GraphID: 3, Event: GraphDone, At: 12.000000001}, GraphEvent{Event: "other", At: -1e-7})
	roundTrip(t, ioTraceCodec, IOTrace{}, IOTrace{Op: "read", Rank: 3, Hostname: "n0", Path: "/f", ThreadID: 9, Offset: 4096, Bytes: 512, Start: s(0.5), End: s(0.75)})
}

// TestAppendSecondsMatchesAppendFloat checks the direct digit path against
// the general one, at the edges and over random times on both sides of them.
func TestAppendSecondsMatchesAppendFloat(t *testing.T) {
	check := func(ts sim.Time) {
		got, want := appendSeconds(nil, ts), appendFloat(nil, ts.Seconds())
		if !bytes.Equal(got, want) {
			t.Fatalf("time %d: %s, encoding/json writes %s", ts, got, want)
		}
		if back, err := strconv.ParseFloat(string(got), 64); err != nil || back != ts.Seconds() {
			t.Fatalf("time %d: %s reads back as %v (%v)", ts, got, back, err)
		}
	}
	for _, ts := range hostileTimes {
		check(ts)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2_000_000; i++ {
		check(sim.Time(rng.Int63n(1 << uint(10+rng.Intn(44)))))
	}
	for i := 0; i < 100_000; i++ {
		check(1<<52 - sim.Time(rng.Int63n(1<<20)))
		check(sim.Time(rng.Int63n(2000)))
	}
}

// TestDecodeLenient pins the reading rules that come from decoding by way of
// a map: absent and mistyped members are zero, unknown ones are skipped, the
// last duplicate wins, whitespace and escaped member names are fine.
func TestDecodeLenient(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want dask.TaskMeta
	}{
		{`null`, dask.TaskMeta{}},
		{`{}`, dask.TaskMeta{}},
		{" {\n\t\"key\" : \"a\" , \"at\" : 2 } ", dask.TaskMeta{Key: "a", At: 2 * sim.Second}},
		{`{"key":1,"prefix":null,"group":["g"],"graph_id":"7","deps":"x","at":true}`, dask.TaskMeta{}},
		{`{"key":"a","key":"b","deps":["x"],"deps":["y",3,null,{"z":[1]},"w"]}`, dask.TaskMeta{Key: "b", Deps: []dask.TaskKey{"y", "w"}}},
		{`{"deps":["x"],"deps":7}`, dask.TaskMeta{}},
		{`{"unknown":{"a":[1,2,{"b":null}],"c":"é"},"key":"esc","graph_id":2.9}`, dask.TaskMeta{Key: "esc", GraphID: 2}},
		{`{"key":"😀 \ud83d x \udc00A \/"}`, dask.TaskMeta{Key: "😀 � x �A /"}},
		{"{\"key\":\"a\xffb\"}", dask.TaskMeta{Key: "a�b"}},
	} {
		got, err := DecodeTaskMeta([]byte(tc.in))
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
		if spec := ParseTaskMeta(mustDecode(t, []byte(tc.in))); !reflect.DeepEqual(got, spec) {
			t.Errorf("%s: typed %+v, map %+v", tc.in, got, spec)
		}
	}
	e, err := DecodeExecution([]byte(`{"files":[1,{"path":"/a","size_after":3,"x":0},"s",{}],"via":1}`))
	if want := (dask.TaskExecution{Files: []dask.FileEffect{{Path: "/a", SizeAfter: 3}, {}}}); err != nil || !reflect.DeepEqual(e, want) {
		t.Errorf("files: %+v, %v", e, err)
	}
	tr, err := DecodeTransfer([]byte(`{"same_node":1,"via_proxy":true,"via_proxy":"yes"}`))
	if err != nil || tr != (dask.Transfer{}) {
		t.Errorf("booleans: %+v, %v", tr, err)
	}
}

// TestDecodeRejectsMalformed: malformed JSON is an error from every decoder —
// never a panic, never a silent zero record.
func TestDecodeRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		``, ` `, `{`, `}`, `{"key"}`, `{"key":}`, `{"key":"a",}`, `{,}`, `{"key":"a" "at":1}`, `{"key":"a"}x`, `{"key":"a"}{}`,
		`[]`, `"s"`, `12`, `true`, `nul`, `nulll`, `{"at":01}`, `{"at":1.}`, `{"at":.5}`, `{"at":1e}`, `{"at":+1}`, `{"at":-}`,
		`{"at":1e999}`, `{"x":1e999}`, `{"key":1e999}`, `{"key":"a\x"}`, `{"key":"a\u12"}`, `{"key":"a\u12g4"}`, `{"key":"unterminated}`,
		"{\"key\":\"ctl\x01\"}", "{\"key\":\"nl\n\"}", `{"deps":[1,]}`, `{"deps":[,1]}`, `{"deps":[1 2]}`, `{"deps":["a"}`, `{"x":tru}`, `{"x":False}`,
		`{key:"a"}`, `{'key':'a'}`, `{"files":[{"path":"/a",}]}`, "{\"key\":\"a\"}\x00",
	} {
		if m, err := mofka.DecodeMetadata([]byte(in)); err == nil {
			t.Fatalf("test input %q is valid JSON: %v", in, m)
		}
		for name, err := range decodeAll([]byte(in)) {
			if err == nil {
				t.Errorf("%s accepted %q", name, in)
			}
		}
	}
	nested := func(depth int) []byte {
		b := bytes.Repeat([]byte(`{"x":`), depth)
		return append(append(b, '0'), bytes.Repeat([]byte(`}`), depth)...)
	}
	for name, err := range decodeAll(nested(maxDepth)) {
		if err != nil {
			t.Errorf("%s rejected %d levels of nesting: %v", name, maxDepth, err)
		}
	}
	for name, err := range decodeAll(nested(maxDepth + 1)) {
		if err == nil {
			t.Errorf("%s accepted %d levels of nesting", name, maxDepth+1)
		}
	}
}

// decodeAll runs every decoder over b and returns their errors by name.
func decodeAll(b []byte) map[string]error {
	errs := make(map[string]error)
	_, errs["task-meta"] = DecodeTaskMeta(b)
	_, errs["transition"] = DecodeTransition(b)
	_, errs["execution"] = DecodeExecution(b)
	_, errs["transfer"] = DecodeTransfer(b)
	_, errs["proxy"] = DecodeProxyEvent(b)
	_, errs["warning"] = DecodeWarning(b)
	_, errs["heartbeat"] = DecodeHeartbeat(b)
	_, errs["steal"] = DecodeSteal(b)
	_, errs["speculation"] = DecodeSpeculation(b)
	_, errs["graph-event"] = DecodeGraphEvent(b)
	_, errs["io-trace"] = DecodeIOTrace(b)
	return errs
}

// sameRecord is DeepEqual with two allowances for what a value loses in its
// float form: a sim.Time may differ by a nanosecond (the float-to-Time
// conversion truncates), and a thread id past 2^53 — which only a negative or
// overflowing number decodes to — need not survive at all.
func sameRecord(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameRecord(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameRecord(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	if a.Type() == reflect.TypeOf(sim.Time(0)) {
		d := a.Int() - b.Int()
		return d >= -1 && d <= 1
	}
	if a.Kind() == reflect.Uint64 && a.Uint() > 1<<53 {
		return true
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

// fuzzCodec is FuzzCodec's body for one type: the decoder accepts exactly
// what decoding to a map accepts and agrees with Parse on it, and what it
// accepts re-encodes to bytes that decode to the same record.
func fuzzCodec[T any](t *testing.T, c codec[T], in []byte) {
	got, err := c.decode(in)
	m, mapErr := mofka.DecodeMetadata(in)
	if (err == nil) != (mapErr == nil) {
		t.Fatalf("%s: %q: typed decoder says %v, encoding/json says %v", c.name, in, err, mapErr)
	}
	if err != nil {
		return
	}
	if spec := c.parse(m); !reflect.DeepEqual(got, spec) {
		t.Fatalf("%s: %q\n  typed: %+v\n    map: %+v", c.name, in, got, spec)
	}
	if g, ok := any(got).(GraphEvent); ok && (math.IsInf(g.At, 0) || math.IsNaN(g.At)) {
		t.Fatalf("decoded a non-finite time from %q", in)
	}
	// The one member a decoder fills that its encoder may not write back: a
	// direct transfer carries no resolve latency.
	if tr, ok := any(&got).(*dask.Transfer); ok && !tr.ViaProxy {
		tr.ResolveLatency = 0
	}
	again := c.append(nil, got)
	back, err := c.decode(again)
	if err != nil {
		t.Fatalf("%s: %q re-encoded to %q, which does not decode: %v", c.name, in, again, err)
	}
	if !sameRecord(reflect.ValueOf(got), reflect.ValueOf(back)) {
		t.Fatalf("%s: %q\n decoded: %+v\nre-encoded %q\n decoded: %+v", c.name, in, got, again, back)
	}
}

// FuzzCodec feeds arbitrary bytes to every decoder: none may panic, and each
// must stand in the relation fuzzCodec states to encoding/json and to its own
// encoder.
func FuzzCodec(f *testing.F) {
	for _, s := range []string{`null`, `{}`, `{"key":"a","at":1.5,"deps":["b"],"graph_id":3}`, `{"files":[{"path":"/a","size_after":1}],"thread_id":18446744073709551615}`,
		`{"via_proxy":true,"resolve_latency":0.035,"same_node":false}`, `{"kind":"retry","attempt":2,"wasted":1e-7}`, `{"event":"done","at":1e21,"graph_id":-1}`,
		`{"key":"😀 <>&","at":-0}`, `{"at":1.091797652072e3}`, ` { "a" : [ 1 , { "b" : null } ] } `, `{"key":"a"`, `[1]`} {
		f.Add([]byte(s))
	}
	add := func(b []byte) { f.Add(append([]byte(nil), b...)) }
	add(AppendExecution(nil, hostileExecutions()[7]))
	add(AppendTaskMeta(nil, hostileTaskMetas()[9]))
	add(AppendSpeculation(nil, hostileSpeculations()[127]))
	f.Fuzz(func(t *testing.T, in []byte) {
		fuzzCodec(t, taskMetaCodec, in)
		fuzzCodec(t, transitionCodec, in)
		fuzzCodec(t, executionCodec, in)
		fuzzCodec(t, transferCodec, in)
		fuzzCodec(t, proxyCodec, in)
		fuzzCodec(t, warningCodec, in)
		fuzzCodec(t, heartbeatCodec, in)
		fuzzCodec(t, stealCodec, in)
		fuzzCodec(t, speculationCodec, in)
		fuzzCodec(t, graphCodec, in)
		fuzzCodec(t, ioTraceCodec, in)
	})
}

// TestDrain: typed drain delivers a topic's events once each, in the order
// Consumer.Drain does, and reports a corrupt event as an error naming it.
func TestDrain(t *testing.T) {
	b := mofka.NewStandaloneBroker()
	topic, err := b.CreateTopic(mofka.TopicConfig{Name: TopicSteals, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := topic.NewProducer(mofka.ProducerOptions{BatchSize: 7})
	const n = 500
	for i := 0; i < n; i++ {
		ev := dask.StealEvent{Key: dask.TaskKey(fmt.Sprintf("k-%03d", i)), Victim: "v", Thief: "t", At: sim.Time(i) * sim.Milliseconds(1)}
		if err := p.PushRaw(AppendSteal(nil, ev), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Drain(b, TopicSteals, DecodeSteal)
	if err != nil || len(got) != n {
		t.Fatalf("drained %d, %v", len(got), err)
	}
	c, err := topic.NewConsumer(mofka.ConsumerOptions{NoData: true})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs {
		if want := ParseSteal(MustParse(ev)); got[i] != want {
			t.Fatalf("event %d: typed drain has %+v, consumer drain %+v", i, got[i], want)
		}
	}
	if _, err := Drain(b, "no-such-topic", DecodeSteal); err == nil {
		t.Fatal("drain of a missing topic succeeded")
	}
	// Valid JSON that is not an event object gets past the broker and must
	// surface as an error, not a panic.
	part, err := topic.Partition(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Append([][]byte{[]byte(`[1,2]`)}, [][]byte{nil}); err != nil {
		t.Fatal(err)
	}
	if _, err := Drain(b, TopicSteals, DecodeSteal); err == nil {
		t.Fatal("drain over a non-object event succeeded")
	}
}
