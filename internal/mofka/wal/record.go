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

// frameReader reads segment files frame by frame through one buffer, reused
// from segment to segment and sized to the segment (at most readBlock, more
// only for a frame that is itself larger).
type frameReader struct {
	maxRecordBytes int
	buf            []byte
	recs           []Record
}

const readBlock = 1 << 20

// read opens the segment at path, reads its first size bytes once and
// validates every frame in them, passing the records to visit in batches, in
// order. The records alias the read buffer and are valid only during the
// call. It returns how many records visit accepted and the byte length of
// the frames holding them. err is errTorn when the bytes after that prefix
// are not a whole valid frame, visit's error when it returns one, or an I/O
// error.
func (fr *frameReader) read(path string, size int64, visit func([]Record) error) (records uint64, valid int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open segment: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only open
	if want := int(min(size, readBlock)); len(fr.buf) < want {
		fr.buf = make([]byte, want)
	}
	buf := fr.buf
	start, end := 0, 0 // buf[start:end] is read and not yet parsed
	for {
		recs, parsed := fr.recs[:0], 0
		var rec Record
		var n int
		var perr error
		for {
			if rec, n, perr = parseFrame(buf[start+parsed:end], fr.maxRecordBytes); perr != nil {
				break
			}
			recs = append(recs, rec)
			parsed += n
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
		if perr == errTorn {
			return records, valid, errTorn
		}
		// The buffer ends inside a frame: move the fragment to the front
		// and read on, into a larger buffer when the frame needs one.
		if size == 0 {
			if start < end {
				return records, valid, errTorn
			}
			return records, valid, nil
		}
		if n > len(buf) {
			buf = append(make([]byte, 0, n), buf[start:end]...)[:n]
			fr.buf = buf
		} else {
			copy(buf, buf[start:end])
		}
		start, end = 0, end-start
		got, err := io.ReadFull(f, buf[end:end+int(min(int64(len(buf)-end), size))])
		end += got
		size -= int64(got)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			size = 0 // the file is shorter than its directory entry said
		} else if err != nil {
			return records, valid, fmt.Errorf("wal: read segment %s: %w", path, err)
		}
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
