package mofka

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"taskprov/internal/mofka/wal"
)

// referenceStored is the stored form as encoding/json builds it.
func referenceStored(t *testing.T, b []byte) []byte {
	var compact, escaped bytes.Buffer
	if err := json.Compact(&compact, b); err != nil {
		t.Fatalf("json.Valid accepts %q, json.Compact does not: %v", b, err)
	}
	json.HTMLEscape(&escaped, compact.Bytes())
	return escaped.Bytes()
}

// FuzzAdmission: for arbitrary bytes, scanMetadata accepts what json.Valid
// accepts, and what it calls stored is what json.Compact and json.HTMLEscape
// leave alone. A partition refuses what it does not accept, and an event
// offered with a non-empty payload, and serves what it does accept in that
// stored form, through a share and a truncation too (roundTrip). The seed
// corpus is testdata/fuzz/FuzzAdmission.
func FuzzAdmission(f *testing.F) {
	f.Fuzz(func(t *testing.T, b, payload []byte) {
		valid, stored := scanMetadata(b)
		if want := json.Valid(b); valid != want {
			t.Fatalf("scanMetadata(%q) valid = %v, json.Valid = %v", b, valid, want)
		}
		if len(payload) > 0 || !valid && len(b) > 0 { // no metadata is stored as null
			_, tp := newTopic(t, "t", 1)
			err := tp.partitions[0].Append([][]byte{b}, [][]byte{payload})
			if !errors.Is(err, ErrInvalidEvent) || tp.Events() != 0 {
				t.Fatalf("Append(%q, %q) = %v, leaving %d events", b, payload, err, tp.Events())
			}
		}
		if !valid {
			return
		}
		want := referenceStored(t, b)
		if stored != bytes.Equal(want, b) {
			t.Fatalf("scanMetadata(%q) stored = %v, encoding/json stores %q", b, stored, want)
		}
		roundTrip(t, b, want, false)
	})
}

// admissionSample is testdata/admission_sample.jsonl: one event per topic as a
// seeded run stores it, a transition with a Dask tuple key, a 40-deep document.
func admissionSample(tb testing.TB) [][]byte {
	raw, err := os.ReadFile("testdata/admission_sample.jsonl")
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
}

// appendAllocsPerBatch is what Partition.Append of a 128-event batch
// allocates, on an in-memory and on a durable partition alike
// (testing.AllocsPerRun, which rounds down): the metadata arena and the
// documents — the store's pages are a fraction of one. It was 4 while each
// batch also had its payload offsets and a Warabi region, empty or not, and
// each document was an envelope around the metadata. Admission adds nothing.
const appendAllocsPerBatch = 2

// TestAdmissionReadsAndAllocatesPerBatch: the admission pass allocates nothing
// for any event the repo's encoders produce, calls each of them stored, and a
// default-size batch costs Partition.Append no more than its arena and its
// documents, on an in-memory and on a durable partition.
func TestAdmissionReadsAndAllocatesPerBatch(t *testing.T) {
	sample := admissionSample(t)
	if len(sample) < 12 || !bytes.Contains(sample[2], []byte(`"('getitem-`)) || !bytes.HasPrefix(sample[len(sample)-1], []byte(strings.Repeat(`{"d":`, 40))) {
		t.Fatalf("sample of %d lines lacks its tuple-key transition or its 40-deep document", len(sample))
	}
	for _, m := range sample {
		if valid, stored := scanMetadata(m); !valid || !stored {
			t.Fatalf("scanMetadata(%s) = %v, %v", m, valid, stored)
		}
		if n := testing.AllocsPerRun(100, func() { scanMetadata(m) }); n != 0 {
			t.Errorf("scanMetadata(%s) allocates %v times", m, n)
		}
	}

	metas := make([][]byte, 128)
	for i := range metas {
		metas[i] = sample[i%len(sample)]
	}
	// A durable partition frames the batch for its log in a slice it keeps,
	// so its log costs the append nothing either.
	durable, err := NewDurableBroker(Options{DataDir: t.TempDir(), WAL: wal.Options{Sync: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for name, b := range map[string]*Broker{"memory": NewStandaloneBroker(), "durable": durable} {
		tp, err := b.CreateTopic(TopicConfig{Name: "t", Partitions: 1})
		if err != nil {
			t.Fatal(err)
		}
		p := tp.partitions[0]
		perBatch := testing.AllocsPerRun(200, func() {
			if err := p.Append(metas, nil); err != nil {
				t.Fatal(err)
			}
		})
		if perBatch > appendAllocsPerBatch {
			t.Fatalf("%s: Append of a %d-event batch allocates %v times, budget %d", name, len(metas), perBatch, appendAllocsPerBatch)
		}
	}
}

// BenchmarkAdmit is the admission pass over the three shapes of event that
// matter: a transition the first loop of the old needsRewrite cleared, one
// whose tuple key defeated it, and a document that has to be rewritten.
func BenchmarkAdmit(b *testing.B) {
	sample := admissionSample(b)
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, sample[0], "", "  "); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		event  []byte
		stored bool
	}{
		{"transition", sample[1], true},
		{"tuple-key", sample[2], true},
		{"whitespace", spaced.Bytes(), false},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.event)))
			for i := 0; i < b.N; i++ {
				if valid, stored := scanMetadata(c.event); !valid || stored != c.stored {
					b.Fatalf("scanMetadata(%s) = %v, %v", c.event, valid, stored)
				}
			}
		})
	}
}
