package darshan

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// seedLog is a log as a worker's runtime writes it at the end of a run —
// records with counters, DXT segments and the heatmap — small enough to
// mutate quickly.
func seedLog(t testing.TB) []byte {
	r := NewRuntime(cfg())
	r.OpenEvent(op("/data/img-001.png", 7, 0, 0, 0.1, 0.101), false)
	for i := 0; i < 6; i++ {
		r.ReadEvent(op("/data/img-001.png", 7, int64(i)*4<<20, 4<<20, float64(i), float64(i)+0.3))
	}
	r.WriteEvent(op("/out/result.png", 8, 0, 80<<20, 25, 27))
	r.CloseEvent(op("/data/img-001.png", 7, 0, 0, 30, 30))
	var buf bytes.Buffer
	if err := r.Snapshot().Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadLog: arbitrary bytes never panic the binary log reader, what it
// reads costs memory in proportion to the bytes it was given — no count or
// length field is trusted before the data behind it arrives — and a log it
// accepts re-encodes to bytes that decode to the same log.
func FuzzReadLog(f *testing.F) {
	valid := seedLog(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	f.Add([]byte("GARBAGE FILE"))
	// Counts the data does not back: the job header's first string, then the
	// heatmap's bin count (it follows BinSeconds = 1.0), claim far more than
	// arrives.
	f.Add(binary.LittleEndian.AppendUint32(append([]byte(nil), valid[:8]...), 1<<20))
	var hm bytes.Buffer
	if err := (&Log{Heatmap: &Heatmap{BinSeconds: 1, ReadBytes: make([]int64, 3), WriteBytes: make([]int64, 3)}}).Write(&hm); err != nil {
		f.Fatal(err)
	}
	count := bytes.Index(hm.Bytes(), []byte{0xf0, 0x3f, 3, 0, 0, 0}) + 2
	if count < 2 {
		f.Fatal("heatmap bin count not found in an encoded log")
	}
	f.Add(binary.LittleEndian.AppendUint32(append([]byte(nil), hm.Bytes()[:count]...), maxRecords))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := ReadLog(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if spent, allowed := after.TotalAlloc-before.TotalAlloc, uint64(8<<20+64*len(data)); spent > allowed {
			t.Fatalf("reading %d bytes allocated %d", len(data), spent)
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := l.Write(&first); err != nil {
			t.Fatalf("accepted log does not encode: %v", err)
		}
		again, err := ReadLog(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded log refused: %v", err)
		}
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("log changed across a decode and re-encode")
		}
	})
}
