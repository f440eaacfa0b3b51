package provenance

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"taskprov/internal/dask"
	"taskprov/internal/sim"
)

// sampleDecoder reads one topic's events two ways: drop decodes and discards
// the record, which is what a malloc count should see; keep boxes it, for
// comparing.
type sampleDecoder struct {
	drop func(*Decoder, []byte) error
	keep func(*Decoder, []byte) (any, error)
}

func decodes[T any](c codec[T]) sampleDecoder {
	return sampleDecoder{
		drop: func(x *Decoder, b []byte) error { _, err := c.decode(x, b); return err },
		keep: func(x *Decoder, b []byte) (any, error) { return c.decode(x, b) },
	}
}

var sampleDecoders = map[string]sampleDecoder{
	TopicTaskMeta: decodes(taskMetaCodec), TopicTransitions: decodes(transitionCodec),
	TopicExecutions: decodes(executionCodec), TopicTransfers: decodes(transferCodec),
	TopicWarnings: decodes(warningCodec), TopicHeartbeats: decodes(heartbeatCodec),
	TopicSteals: decodes(stealCodec), TopicGraphs: decodes(graphCodec), TopicProxy: decodes(proxyCodec),
	TopicSpeculation: decodes(speculationCodec), TopicIOTrace: decodes(ioTraceCodec),
}

// ownSlices counts the allocations a record's own slices take when decoded
// one element at a time: an element of Deps or Files each.
func ownSlices(rec any) int {
	switch r := rec.(type) {
	case dask.TaskMeta:
		return len(r.Deps)
	case dask.TaskExecution:
		return len(r.Files)
	}
	return 0
}

// eachString calls fn with every string of v, found through its fields and
// slices, and the name of the field holding it ("Warning.Message").
func eachString(v reflect.Value, field string, fn func(field, s string)) {
	switch v.Kind() {
	case reflect.String:
		fn(field, v.String())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachString(v.Field(i), v.Type().Name()+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			eachString(v.Index(i), field, fn)
		}
	}
}

// aliases reports whether s lies inside b's bytes.
func aliases(b []byte, s string) bool {
	if len(b) == 0 || len(s) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(&b[0]))
	return p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(b))
}

// TestDecoderBorrowsNames runs a sample of every record type — with a tuple
// key, an escaped key and non-ASCII names — through one decoder twice, each
// record checked against what a fresh decoder reads, and the first pass's
// records again once the second is done (task-meta dependencies live in the
// decoder's arena, which must not be written under them). Every name the input
// holds verbatim is a string over the input's own bytes; an escaped name
// and the free text (Warning.Message, SpeculationEvent.Detail) are copies;
// and a warm decoder allocates for nothing else but the records' own slices.
func TestDecoderBorrowsNames(t *testing.T) {
	raw, err := os.ReadFile("testdata/decoder_sample.txt")
	if err != nil {
		t.Fatal(err)
	}
	type line struct {
		topic string
		b     []byte
	}
	var sample []line
	seen := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		topic, b, _ := strings.Cut(l, " ")
		if sampleDecoders[topic].drop == nil {
			t.Fatalf("sample line for unknown topic %q", topic)
		}
		seen[topic] = true
		sample = append(sample, line{topic, []byte(b)})
	}
	if len(seen) != len(sampleDecoders) {
		t.Fatalf("the sample covers %d of %d topics", len(seen), len(sampleDecoders))
	}

	x := new(Decoder)
	var first []any // pass 1's records, which pass 2 must leave as they were
	for pass := 1; pass <= 2; pass++ {
		for i, l := range sample {
			got, err := sampleDecoders[l.topic].keep(x, l.b)
			if err != nil {
				t.Fatalf("pass %d, line %d: %v", pass, i+1, err)
			}
			want, _ := sampleDecoders[l.topic].keep(new(Decoder), l.b)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d, line %d: %+v, a fresh decoder reads %+v", pass, i+1, got, want)
			}
			if pass == 1 {
				first = append(first, got)
			}
		}
	}
	for i, l := range sample {
		if want, _ := sampleDecoders[l.topic].keep(new(Decoder), l.b); !reflect.DeepEqual(first[i], want) {
			t.Fatalf("line %d: decoded first as %+v, reads %+v after the decoder went on", i+1, first[i], want)
		}
	}
	kinds := map[string]int{}
	for i, l := range sample {
		rec, _ := sampleDecoders[l.topic].keep(x, l.b)
		copies := 0
		eachString(reflect.ValueOf(rec), "", func(field, s string) {
			if s == "" {
				return
			}
			free := field == "Warning.Message" || field == "SpeculationEvent.Detail"
			escaped := !bytes.Contains(l.b, []byte(`"`+s+`"`))
			borrowed := aliases(l.b, s)
			switch {
			case free:
				kinds["free text"]++
			case escaped:
				kinds["escaped"]++
			default:
				kinds["verbatim"]++
			}
			if want := !free && !escaped; borrowed != want {
				t.Errorf("line %d: %s %q borrows the input: %v, want %v", i+1, field, s, borrowed, want)
			}
			if !borrowed {
				copies++
			}
		})
		allowed := float64(ownSlices(rec) + copies)
		if n := testing.AllocsPerRun(20, func() { _ = sampleDecoders[l.topic].drop(x, l.b) }); n > allowed {
			t.Errorf("line %d (%s): a warm decoder allocates %v times, the record's slices and copies account for %v", i+1, l.topic, n, allowed)
		}
	}
	if kinds["free text"] != 2 || kinds["escaped"] == 0 || kinds["verbatim"] == 0 {
		t.Errorf("the sample's strings: %v, want both free texts, escaped and verbatim names", kinds)
	}
}

// TestExactFloatMatchesParseFloat holds number's fast path to ParseFloat, bit
// for bit: random literals without an exponent of up to 15 digits, which it
// takes, and of 16 or 17, which it must leave to ParseFloat, plus the edges.
func TestExactFloatMatchesParseFloat(t *testing.T) {
	check := func(lit string) {
		t.Helper()
		d := dec{b: []byte(lit)}
		got := d.number()
		want, err := strconv.ParseFloat(lit, 64)
		if d.err != nil || err != nil || d.i != len(lit) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: number reads %v (%b, %v, stopped at %d), ParseFloat %v (%b, %v)", lit, got, math.Float64bits(got), d.err, d.i, want, math.Float64bits(want), err)
		}
	}
	for _, lit := range []string{"0", "-0", "0.0", "-0.0", "1", "-1", "0.1", "0.2", "0.3", "1.5", "2.675",
		"0.00000000000001", "0.000000000000001", "-0.000000000000001", "0.0000000000000001",
		"999999999999999", "-999999999999999", "9999999999999999", "99999999999999.9", "9.99999999999999",
		"123456789012345", "1234567890123456", "12345678901234567890", "0.000000000000000", "1.000000000000000",
		"100000000000000", "1000000000000000", "4503599627370497", "9007199254740993", "0.30000000000000004",
		"1091.797652072", "4323.978233018", "269.7529125", "1e5", "1E-7", "-2.5e+3", "1.7976931348623157e308", "5e-324"} {
		check(lit)
	}
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for i := 0; i < 2_000_000; i++ {
		buf = buf[:0]
		if rng.Intn(4) == 0 {
			buf = append(buf, '-')
		}
		n := 1 + rng.Intn(17)
		intDigits := 1 + rng.Intn(n)
		if rng.Intn(3) == 0 {
			// A zero integer part, so the fraction may carry leading zeros.
			buf = append(buf, '0')
			intDigits = 1
		} else {
			buf = append(buf, byte('1'+rng.Intn(9)))
			for j := 1; j < intDigits; j++ {
				buf = append(buf, byte('0'+rng.Intn(10)))
			}
		}
		if frac := n - intDigits; frac > 0 {
			buf = append(buf, '.')
			for j := 0; j < frac; j++ {
				buf = append(buf, byte('0'+rng.Intn(10)))
			}
		}
		check(string(buf))
	}
}

// decodeBenchEvents builds n events shaped like an xgboost log's: task keys
// that recur a few times each, and states, stimuli, locations and workers
// from small sets.
func decodeBenchEvents(n int) (transitions, executions [][]byte) {
	states := []dask.TaskState{"released", "waiting", "processing", "memory", "forgotten", "erred", "no-worker"}
	stimuli := []string{"compute-task", "task-finished", "update-graph", "steal-request", "release-key", "free-keys", "gather-dep",
		"transition-to-memory", "worker-added", "key-in-memory", "client-releases-keys", "task-erred", "retry", "reschedule"}
	for i := 0; i < n; i++ {
		key := dask.TaskKey(fmt.Sprintf("('getitem-%06x', %d)", i/9, i%9))
		worker := fmt.Sprintf("tcp://10.0.0.%d:40001", i%8)
		loc := "scheduler"
		if i%9 != 0 {
			loc = worker
		}
		at := sim.Time(i) * 1_234_567
		transitions = append(transitions, AppendTransition(nil, dask.Transition{Key: key, From: states[i%7], To: states[(i+1)%7],
			Stimulus: stimuli[i%14], Location: loc, At: at}))
		executions = append(executions, AppendExecution(nil, dask.TaskExecution{Key: key, Worker: worker,
			Hostname: fmt.Sprintf("nid%05d", i%8), ThreadID: uint64(140000 + i%4), Start: at, Stop: at + 987_654_321,
			OutputSize: int64(i) * 4096, GraphID: 1}))
	}
	return transitions, executions
}

// BenchmarkDecode reads a transition and an execution as stored, through
// one decoder: every name borrows the event's bytes, so neither allocates.
func BenchmarkDecode(b *testing.B) {
	transitions, executions := decodeBenchEvents(3000)
	for _, tc := range []struct {
		name   string
		events [][]byte
		decode func(*Decoder, []byte) error
	}{
		{"transition", transitions, func(x *Decoder, b []byte) error { _, err := x.Transition(b); return err }},
		{"execution", executions, func(x *Decoder, b []byte) error { _, err := x.Execution(b); return err }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			x := new(Decoder)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tc.decode(x, tc.events[i%len(tc.events)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
