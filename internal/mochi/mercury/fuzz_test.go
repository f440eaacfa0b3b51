package mercury

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzReadFrame: whatever bytes a TCP peer sends, reading a frame from them
// never panics and never costs memory out of proportion to what arrived (the
// length prefix is a claim, not an allocation size); an accepted frame is
// exactly the prefixed bytes, and writeFrame puts the same bytes back on the
// wire.
func FuzzReadFrame(f *testing.F) {
	var wire bytes.Buffer
	for _, payload := range [][]byte{nil, []byte("mofka.pull"), []byte(`{"topic":"t","partition":0,"from":0,"max":10,"with_data":true}`), bytes.Repeat([]byte{0xa5}, 3*frameChunk/2)} {
		wire.Reset()
		if err := writeFrame(&wire, payload); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), wire.Bytes()...))
	}
	f.Add([]byte{0, 0})                                 // torn header
	f.Add([]byte{0, 0, 0, 9, 'x'})                      // torn payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})          // over the frame limit
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame)) // the limit itself, nothing behind it
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		frame, err := readFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if spent, allowed := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+8*len(data)); spent > allowed {
			t.Fatalf("reading a frame from %d bytes allocated %d", len(data), spent)
		}
		if err != nil {
			return
		}
		if len(data) < 4 || len(frame) != int(binary.BigEndian.Uint32(data)) || !bytes.Equal(frame, data[4:4+len(frame)]) {
			t.Fatalf("accepted frame of %d bytes is not what the %d input bytes prefix", len(frame), len(data))
		}
		var back bytes.Buffer
		if err := writeFrame(&back, frame); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), data[:4+len(frame)]) {
			t.Fatal("frame changed across a read and a write")
		}
	})
}
