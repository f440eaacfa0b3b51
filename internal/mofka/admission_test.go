package mofka

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"taskprov/internal/mofka/wal"
)

// checkMetadata is what TestSplitEnvelope asks of its inputs before it frames
// them: admitted, and already in stored form.
func checkMetadata(metadata []byte) error {
	if valid, stored := scanMetadata(metadata); !valid || !stored {
		return fmt.Errorf("scanMetadata(%q) = %v, %v", metadata, valid, stored)
	}
	return nil
}

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
// accepts; what it calls stored is what json.Compact and json.HTMLEscape leave
// alone; the envelope around the stored form splits back into it. And
// splitEnvelope, handed the same arbitrary bytes, never panics, and what it
// accepts re-frames to an envelope that splits to the same four values. The
// seed corpus is testdata/fuzz/FuzzAdmission.
func FuzzAdmission(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte, region uint64, offset, size int64) {
		offset, size = offset&math.MaxInt64, size&math.MaxInt64 // a region has no negative offsets
		valid, stored := scanMetadata(b)
		if want := json.Valid(b); valid != want {
			t.Fatalf("scanMetadata(%q) valid = %v, json.Valid = %v", b, valid, want)
		}
		if valid {
			want := referenceStored(t, b)
			if stored != bytes.Equal(want, b) {
				t.Fatalf("scanMetadata(%q) stored = %v, encoding/json stores %q", b, stored, want)
			}
			m := b
			if !stored {
				m = storedForm(b)
			}
			doc := appendEnvelope(nil, m, region, offset, size)
			if n := envelopeLen(m, region, offset, size); n != len(doc) {
				t.Fatalf("envelopeLen = %d, envelope %q is %d bytes", n, doc, len(doc))
			}
			gm, gr, goff, gs, err := splitEnvelope(doc)
			if err != nil || !bytes.Equal(gm, want) || gr != region || goff != offset || gs != size {
				t.Fatalf("splitEnvelope(%q) = %q %d %d %d, %v; framed %q %d %d %d", doc, gm, gr, goff, gs, err, want, region, offset, size)
			}
		}
		m, r, o, s, err := splitEnvelope(b)
		if err != nil {
			return
		}
		again := appendEnvelope(nil, m, r, o, s)
		m2, r2, o2, s2, err := splitEnvelope(again)
		if err != nil || !bytes.Equal(m2, m) || r2 != r || o2 != o || s2 != s {
			t.Fatalf("splitEnvelope(%q) = %q %d %d %d, re-framed as %q = %q %d %d %d, %v", b, m, r, o, s, again, m2, r2, o2, s2, err)
		}
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

// appendAllocsPerBatch is what Partition.Append of a 128-event batch without
// payloads allocates on an in-memory broker, measured on the commit before
// admission became one pass (testing.AllocsPerRun, which rounds down): the
// offsets, the region, the envelope arena, the documents — the store's pages
// are a fraction of one. Admission adds nothing.
const appendAllocsPerBatch = 4

// TestAdmissionReadsAndAllocatesPerBatch: the admission pass allocates nothing
// for any event the repo's encoders produce, calls each of them stored, and a
// default-size batch costs Partition.Append no more mallocs than before the
// pass remembered its answers, on an in-memory and on a durable partition.
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

	metas, datas := make([][]byte, 128), make([][]byte, 128)
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
			if err := p.Append(metas, datas); err != nil {
				t.Fatal(err)
			}
		})
		if perBatch > appendAllocsPerBatch {
			t.Fatalf("%s: Append of a %d-event batch allocates %v times, %d before admission was one pass", name, len(metas), perBatch, appendAllocsPerBatch)
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
