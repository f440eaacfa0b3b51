package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// On-disk record framing. Every record is length-prefixed and checksummed so
// a torn write (power loss, kill -9 mid-append) is detectable at open time:
//
//	u32  payload length n (little-endian)
//	u32  CRC32-C of the payload
//	n    payload = u32 metadata length | metadata bytes | data bytes
//
// The CRC covers the payload only; the length field is validated by bounds
// checking (a corrupt length either fails the sanity bound or makes the CRC
// check fail on the misframed payload).
const (
	recordHeaderSize = 8
	payloadMinSize   = 4 // the metadata-length prefix
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record that fails framing or checksum validation
// somewhere other than the log's tail (tail corruption is silently truncated
// as a torn write; interior corruption is a real error).
var ErrCorrupt = errors.New("wal: corrupt record")

// Record is one event as persisted in the log: the JSON metadata and the raw
// data payload.
type Record struct {
	Meta []byte
	Data []byte
}

// frameSize returns the on-disk footprint of a record.
func frameSize(r Record) int64 {
	return recordHeaderSize + payloadMinSize + int64(len(r.Meta)) + int64(len(r.Data))
}

// appendFrame encodes rec into buf and returns the extended slice. The frame
// is laid out in place and checksummed there, in one pass over the payload.
func appendFrame(buf []byte, rec Record) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, recordHeaderSize+payloadMinSize)...)
	payload := start + recordHeaderSize
	binary.LittleEndian.PutUint32(buf[payload:], uint32(len(rec.Meta)))
	buf = append(buf, rec.Meta...)
	buf = append(buf, rec.Data...)
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-payload))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(buf[payload:], crcTable))
	return buf
}

// parseFrame decodes the frame at the start of b without copying: the
// record's Meta and Data alias b. It returns errShort, with the byte count it
// needs, when b ends before the frame does, and errTorn for a frame whose
// length field, checksum or metadata length is invalid — the caller decides
// whether that is a truncatable tail or interior corruption.
func parseFrame(b []byte, maxRecordBytes int) (rec Record, n int, err error) {
	if len(b) < recordHeaderSize {
		return Record{}, recordHeaderSize, errShort
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	want := binary.LittleEndian.Uint32(b[4:8])
	if plen < payloadMinSize || int64(plen) > int64(maxRecordBytes) {
		return Record{}, 0, errTorn
	}
	n = recordHeaderSize + int(plen)
	if len(b) < n {
		return Record{}, n, errShort
	}
	payload := b[recordHeaderSize:n]
	if crc32.Checksum(payload, crcTable) != want {
		return Record{}, 0, errTorn
	}
	mlen := binary.LittleEndian.Uint32(payload[0:4])
	if int64(mlen) > int64(len(payload)-payloadMinSize) {
		return Record{}, 0, errTorn
	}
	cut := payloadMinSize + int(mlen)
	rec.Meta = payload[payloadMinSize:cut:cut]
	if cut < len(payload) {
		rec.Data = payload[cut:len(payload):len(payload)]
	}
	return rec, n, nil
}

// frameReader reads segment files and validates every frame in them. A
// reader that keeps its buffers (OpenReplay's with a visitor) reads each
// segment whole into a buffer of its own, sized to it, and never writes to
// it again. Any other reader keeps nothing of what it reads, so it reads
// through one window it reuses from segment to segment: readWindow bytes,
// never more than the segment holds, and grown only to hold a single frame
// larger than the window. A frame is never cut: what is left of one at the
// window's end slides to its front before the next read.
type frameReader struct {
	maxRecordBytes int
	keep           bool
	buf            []byte
	recs           []Record
}

// readWindow is the window of a reader that keeps nothing. It is a variable
// only so that tests can shrink it until frames straddle every boundary.
var readWindow int64 = 64 << 10

// visitBatch is how many records read hands to visit at a time: a bound on
// the slices a visitor builds beside the records, whatever the segment holds.
const visitBatch = 1024

// read opens the segment at path, reads its first size bytes and validates
// every frame in them, passing the records to visit in order, at most
// visitBatch at a time. The records alias the read buffer: unless the reader
// keeps its buffers they are valid only during the call, and the slice
// holding them is reused either way. It returns how many records visit
// accepted and the byte length of the frames holding them. err is errTorn
// when the bytes after that prefix are not a whole valid frame, visit's
// error when it returns one, or an I/O error.
func (fr *frameReader) read(path string, size int64, visit func([]Record) error) (records uint64, valid int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open segment: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only open
	buf := fr.buf
	if fr.keep {
		buf = make([]byte, size)
	} else if w := min(size, readWindow); int64(len(buf)) < w {
		buf = make([]byte, w)
		fr.buf = buf
	}
	left := size       // bytes of the segment not read yet
	var start, end int // buf[start:end] is read but not yet framed
	for {
		if n := min(int64(len(buf)-end), left); n > 0 {
			got, err := io.ReadFull(f, buf[end:end+int(n)])
			end += got
			left -= int64(got)
			// A file shorter than its directory entry said is read as far
			// as it goes.
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				left = 0
			} else if err != nil {
				return records, valid, fmt.Errorf("wal: read segment %s: %w", path, err)
			}
		}
		recs, parsed, need := fr.recs[:0], 0, 0
		var perr error
		for len(recs) < visitBatch {
			var rec Record
			if rec, need, perr = parseFrame(buf[start+parsed:end], fr.maxRecordBytes); perr != nil {
				break
			}
			recs = append(recs, rec)
			parsed += need
		}
		fr.recs = recs
		if len(recs) > 0 {
			if err := visit(recs); err != nil {
				return records, valid, err
			}
			records += uint64(len(recs))
			valid += int64(parsed)
			start += parsed
		}
		switch {
		case perr == nil:
			continue // a full batch: the window may hold more
		case perr == errTorn:
			return records, valid, errTorn
		case start == end && left == 0:
			return records, valid, nil
		case int64(need) > int64(end-start)+left:
			return records, valid, errTorn // the frame runs past the segment's end
		}
		// The next frame runs past the window's end (a keeping reader's
		// buffer holds the whole segment, so never there): move what is read
		// of it to the front, into a window grown to the frame's size if the
		// frame is the larger.
		if need > len(buf) {
			grown := make([]byte, need)
			copy(grown, buf[start:end])
			buf, fr.buf = grown, grown
		} else {
			copy(buf, buf[start:end])
		}
		end -= start
		start = 0
	}
}

// errTorn marks a record that could not be fully decoded. At the tail of the
// newest segment it means a torn write; anywhere else it is promoted to
// ErrCorrupt. errShort is parseFrame asking for more bytes.
var (
	errTorn  = errors.New("wal: torn record")
	errShort = errors.New("wal: short buffer")
)

func corruptAt(path string, off int64, err error) error {
	return fmt.Errorf("%w: %s at byte %d: %v", ErrCorrupt, path, off, err)
}
