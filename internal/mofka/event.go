// Package mofka reimplements the interface shape of the Mofka event
// streaming service from the Mochi project: topics divided into partitions,
// producers that push events (JSON metadata + raw data payload) with
// batching, and consumers that pull events individually or in bulk, with
// committed cursors. Event metadata is persisted in Yokan collections and
// data payloads in Warabi regions, matching Mofka's actual composition.
//
// The provenance framework (internal/core) uses Mofka exactly as the paper
// describes: the instrumented WMS is the producer, analysis tools are the
// consumers, and both in-situ (blocking pull) and post-mortem (bulk drain)
// consumption use the same API.
package mofka

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// Metadata is the JSON-expressible descriptive part of an event.
type Metadata map[string]any

// Encode serializes metadata to its canonical JSON bytes.
func (m Metadata) Encode() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		// Metadata maps built by this repo are always JSON-encodable;
		// reaching here is a programming error.
		panic(fmt.Sprintf("mofka: unencodable metadata: %v", err))
	}
	return b
}

// DecodeMetadata parses JSON metadata bytes.
func DecodeMetadata(b []byte) (Metadata, error) {
	var m Metadata
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("mofka: decode metadata: %w", err)
	}
	return m, nil
}

// Event is one record in a partition.
type Event struct {
	Topic     string
	Partition int
	ID        uint64 // offset within the partition, dense from 0
	Metadata  []byte // JSON
	Data      []byte // raw payload; nil when the consumer declined data
}

// ParseMetadata decodes the event's metadata JSON.
func (e Event) ParseMetadata() (Metadata, error) { return DecodeMetadata(e.Metadata) }

// The persisted per-event index entry stored in Yokan is the JSON object
//
//	{"m":<metadata>,"r":<region>,"o":<offset>,"s":<size>}
//
// with the metadata in its stored form (see appendStoredMetadata) and the data
// payload in a Warabi region shared by the whole batch. It is framed and
// split by hand: the broker writes and reads one per event.

// envelopeLen is the length of the envelope appendEnvelope writes for
// metadata already in its stored form.
func envelopeLen(metadata []byte, region uint64, offset, size int64) int {
	n := len(metadata)
	if n == 0 {
		n = len("null")
	}
	return n + len(`{"m":,"r":,"o":,"s":}`) + decimalLen(region) + decimalLen(uint64(offset)) + decimalLen(uint64(size))
}

func decimalLen(n uint64) int {
	l := 1
	for n >= 10 {
		n /= 10
		l++
	}
	return l
}

// appendEnvelope appends the envelope of one event whose metadata passed
// checkMetadata.
func appendEnvelope(dst, metadata []byte, region uint64, offset, size int64) []byte {
	dst = append(dst, `{"m":`...)
	dst = appendStoredMetadata(dst, metadata)
	dst = append(dst, `,"r":`...)
	dst = strconv.AppendUint(dst, region, 10)
	dst = append(dst, `,"o":`...)
	dst = strconv.AppendInt(dst, offset, 10)
	dst = append(dst, `,"s":`...)
	dst = strconv.AppendInt(dst, size, 10)
	return append(dst, '}')
}

// splitEnvelope takes an envelope apart. The three trailing numbers are cut
// off the end, so metadata that itself contains `,"r":` cannot be mistaken
// for the frame. The metadata is a slice of doc.
func splitEnvelope(doc []byte) (metadata []byte, region uint64, offset, size int64, err error) {
	rest, ok := doc, len(doc) > 0 && doc[len(doc)-1] == '}'
	if ok {
		rest = rest[:len(rest)-1]
	}
	var s, o uint64
	if ok {
		rest, s, ok = cutTrailingNumber(rest, `,"s":`)
	}
	if ok {
		rest, o, ok = cutTrailingNumber(rest, `,"o":`)
	}
	if ok {
		rest, region, ok = cutTrailingNumber(rest, `,"r":`)
	}
	const head = `{"m":`
	if !ok || len(rest) <= len(head) || string(rest[:len(head)]) != head {
		return nil, 0, 0, 0, fmt.Errorf("malformed envelope %q", doc)
	}
	return rest[len(head):], region, int64(o), int64(s), nil
}

// cutTrailingNumber cuts label followed by decimal digits off the end of b.
func cutTrailingNumber(b []byte, label string) (rest []byte, n uint64, ok bool) {
	j := len(b)
	for j > 0 && b[j-1] >= '0' && b[j-1] <= '9' {
		j--
	}
	if digits := len(b) - j; digits == 0 || digits > 20 || j < len(label) || string(b[j-len(label):j]) != label {
		return b, 0, false
	}
	for _, c := range b[j:] {
		n = n*10 + uint64(c-'0')
	}
	return b[:j-len(label)], n, true
}

// checkMetadata is the broker's admission test for one event: its metadata
// must be JSON (or empty, which is stored as null).
func checkMetadata(metadata []byte) error {
	if len(metadata) > 0 && !json.Valid(metadata) {
		return fmt.Errorf("%w: metadata is not valid JSON", ErrInvalidEvent)
	}
	return nil
}

// appendStoredMetadata appends the form in which the broker stores and serves
// metadata that passed checkMetadata: the JSON text compacted, with <, >, &,
// U+2028 and U+2029 escaped — what marshalling the envelope through
// encoding/json used to produce. Metadata from this repo's encoders is
// already in that form and is copied as is.
func appendStoredMetadata(dst, metadata []byte) []byte {
	if len(metadata) == 0 {
		return append(dst, "null"...)
	}
	if !needsRewrite(metadata) {
		return append(dst, metadata...)
	}
	var compact, escaped bytes.Buffer
	if err := json.Compact(&compact, metadata); err != nil {
		panic(fmt.Sprintf("mofka: metadata admitted as valid does not compact: %v", err))
	}
	json.HTMLEscape(&escaped, compact.Bytes())
	return append(dst, escaped.Bytes()...)
}

// rewriteStart marks the bytes a rewrite can start from: JSON whitespace, the
// characters the stored form escapes, and the lead byte of U+2028 and U+2029.
var rewriteStart = [256]bool{' ': true, '\t': true, '\n': true, '\r': true, '<': true, '>': true, '&': true, 0xE2: true}

// needsRewrite reports whether valid JSON holds whitespace between tokens or,
// inside a string, a character the stored form escapes. Most events hold none
// of the bytes either starts from, and are cleared by the first loop.
func needsRewrite(b []byte) bool {
	clean := true
	for _, c := range b {
		if rewriteStart[c] {
			clean = false
			break
		}
	}
	if clean {
		return false
	}
	inString := false
	for i := 0; i < len(b); i++ {
		c := b[i]
		if !inString {
			switch c {
			case '"':
				inString = true
			case ' ', '\t', '\n', '\r':
				return true
			}
			continue
		}
		switch c {
		case '\\':
			i++
		case '"':
			inString = false
		case '<', '>', '&':
			return true
		case 0xE2: // U+2028 and U+2029 are E2 80 A8 and E2 80 A9
			if i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xA8 {
				return true
			}
		}
	}
	return false
}

// Validator checks event metadata on push. It is Mofka's schema-validation
// hook; a nil validator accepts everything.
type Validator func(metadata []byte) error

// MaxPartitions bounds TopicConfig.Partitions. Real Mofka deployments shard
// a topic across at most a few partitions per broker; four thousand is far
// past any sane layout and a near-certain sign of a miscomputed or corrupt
// configuration, so CreateTopic rejects anything larger up front.
const MaxPartitions = 4096

// TopicConfig describes a topic at creation time.
type TopicConfig struct {
	Name       string `json:"name"`
	Partitions int    `json:"partitions"`

	// Validator runs on every pushed event's metadata (not serialized; RPC
	// deployments validate broker-side only if installed there).
	Validator Validator `json:"-"`
}
