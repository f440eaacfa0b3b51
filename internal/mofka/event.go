// Package mofka reimplements the interface shape of the Mofka event
// streaming service from the Mochi project: topics divided into partitions,
// producers that push events with batching, and consumers that pull events
// individually or in bulk, with committed cursors. An event is its JSON
// metadata, persisted in Yokan collections (and, on a durable broker, a
// segmented log). Mofka's data payload beside an event has no counterpart
// here: bulk bytes travel by reference on the proxy plane
// (internal/proxystore), whose blobs Warabi stores.
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
	Metadata  []byte // JSON, in stored form
}

// ParseMetadata decodes the event's metadata JSON.
func (e Event) ParseMetadata() (Metadata, error) { return DecodeMetadata(e.Metadata) }

// nullMetadata is the stored form of an event pushed without metadata, the
// document of every such event.
var nullMetadata = []byte("null")[:4:4]

// storedForm returns the form in which the broker stores and serves metadata
// scanMetadata found valid but not stored: the JSON text compacted, with <, >,
// &, U+2028 and U+2029 escaped — what encoding/json makes of it marshalled as
// a json.RawMessage. Metadata from this repo's encoders is already in that
// form and never comes here.
func storedForm(metadata []byte) []byte {
	var compact, escaped bytes.Buffer
	if err := json.Compact(&compact, metadata); err != nil {
		panic(fmt.Sprintf("mofka: metadata admitted as valid does not compact: %v", err))
	}
	json.HTMLEscape(&escaped, compact.Bytes())
	return escaped.Bytes()
}

// maxDepth is the nesting encoding/json accepts (its maxNestingDepth).
const maxDepth = 10000

// What a string scan has to stop at: the closing quote, an escape, a control
// byte (not JSON), and the bytes the stored form escapes (JSON, but not
// stored). Every other byte of a string costs one lookup in stringStop.
const (
	stopQuote = iota + 1
	stopEscape
	stopControl
	stopRewrite // <, > and &
	stopE2      // the lead byte of U+2028 and U+2029, E2 80 A8 and E2 80 A9
)

var stringStop = func() (t [256]uint8) {
	for c := 0; c < 0x20; c++ {
		t[c] = stopControl
	}
	t['"'], t['\\'], t[0xE2] = stopQuote, stopEscape, stopE2
	t['<'], t['>'], t['&'] = stopRewrite, stopRewrite, stopRewrite
	return t
}()

// scanMetadata is the broker's admission test for one event, and the only
// one: a single pass that reports whether b is valid JSON — the language of
// encoding/json.Valid byte for byte: any top-level value between optional
// whitespace, its number grammar, its escapes, control bytes refused inside
// strings, no UTF-8 validation, nesting to maxDepth — and, when it is,
// whether b is already what the broker stores: no whitespace between tokens
// and nothing inside a string that the stored form escapes. stored means
// nothing when valid is false.
func scanMetadata(b []byte) (valid, stored bool) {
	// The open containers, '{' or '[' each; on the heap only past the array.
	var inline [64]byte
	stack := inline[:0]
	top := byte(0) // stack's last entry, 0 at top level
	stored = true
	i := 0
	for {
		// A member or an element starts here; in an object its key comes first.
		if top == '{' {
			if i, stored = skipSpace(b, i, stored); i == len(b) || b[i] != '"' {
				return false, false
			}
			if i, stored = scanString(b, i+1, stored); i < 0 {
				return false, false
			}
			if i, stored = skipSpace(b, i, stored); i == len(b) || b[i] != ':' {
				return false, false
			}
			i++
		}
		if i, stored = skipSpace(b, i, stored); i == len(b) {
			return false, false
		}
		switch c := b[i]; c {
		case '{', '[':
			if len(stack) == maxDepth {
				return false, false
			}
			stack, top = append(stack, c), c
			if i, stored = skipSpace(b, i+1, stored); i == len(b) || b[i] != c+2 {
				continue
			}
			// An empty container closes in the loop below: '}' is '{'+2, ']' is '['+2.
		case '"':
			i, stored = scanString(b, i+1, stored)
		case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
			i = scanNumber(b, i)
		case 't':
			i = scanLiteral(b, i, "true")
		case 'f':
			i = scanLiteral(b, i, "false")
		case 'n':
			i = scanLiteral(b, i, "null")
		default:
			return false, false
		}
		if i < 0 {
			return false, false
		}
		// A value has ended: close what it completes, up to the next comma.
		for {
			if i, stored = skipSpace(b, i, stored); top == 0 {
				return i == len(b), stored
			}
			if i == len(b) {
				return false, false
			}
			c := b[i]
			i++
			if c == ',' {
				break
			}
			if c != top+2 {
				return false, false
			}
			stack = stack[:len(stack)-1]
			if top = 0; len(stack) > 0 {
				top = stack[len(stack)-1]
			}
		}
	}
}

// skipSpace steps over JSON whitespace from b[i]; any at all is not stored form.
func skipSpace(b []byte, i int, stored bool) (int, bool) {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i, stored = i+1, false
	}
	return i, stored
}

// scanString scans a string from the byte after its opening quote and returns
// the index after its closing quote, or -1.
func scanString(b []byte, i int, stored bool) (int, bool) {
	for i < len(b) {
		stop := stringStop[b[i]]
		if stop == 0 {
			i++
			continue
		}
		switch stop {
		case stopQuote:
			return i + 1, stored
		case stopEscape:
			if i+1 == len(b) {
				return -1, false
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				// Four hex digits, and a string cannot end before its quote.
				if i+6 >= len(b) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) || !isHex(b[i+5]) {
					return -1, false
				}
				i += 6
			default:
				return -1, false
			}
		case stopControl:
			return -1, false
		case stopRewrite:
			i, stored = i+1, false
		case stopE2:
			if i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xA8 {
				stored = false
			}
			i++
		}
	}
	return -1, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'f'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// scanNumber scans a number whose first byte, '-' or a digit, is b[i] and
// returns the index after it, or -1: -? (0 | [1-9][0-9]*) (. [0-9]+)?
// ([eE] [+-]? [0-9]+)?
func scanNumber(b []byte, i int) int {
	if b[i] == '-' {
		i++
	}
	if i == len(b) || !isDigit(b[i]) {
		return -1
	}
	if i++; b[i-1] != '0' {
		i = skipDigits(b, i)
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !isDigit(b[i]) {
			return -1
		}
		i = skipDigits(b, i)
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return -1
		}
		i = skipDigits(b, i)
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// scanLiteral returns the index after lit at b[i], or -1.
func scanLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// MaxPartitions bounds TopicConfig.Partitions. Real Mofka deployments shard
// a topic across at most a few partitions per broker; four thousand is far
// past any sane layout and a near-certain sign of a miscomputed or corrupt
// configuration, so CreateTopic rejects anything larger up front.
const MaxPartitions = 4096

// TopicConfig describes a topic at creation time.
type TopicConfig struct {
	Name       string `json:"name"`
	Partitions int    `json:"partitions"`
}
