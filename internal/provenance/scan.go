package provenance

import (
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth bounds container nesting, as encoding/json does.
const maxDepth = 10000

var errSyntax = errors.New("invalid JSON")

// dec is a validating cursor over one JSON document. The typed decoders walk
// an object's members with more/key and pull each value with str, num,
// boolean or skip; every value reader consumes exactly one value of any type
// and yields the zero value when the type is not the one asked for, which is
// what Str/Num on a decoded map do. The first error sticks: every later call
// is a no-op that reports "no more members", so decoders need no error
// plumbing until end.
type dec struct {
	b     []byte
	i     int
	err   error
	first bool   // the cursor sits right after a container's opening bracket
	depth int    // containers currently open
	buf   []byte // scratch for strings that need unescaping
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", errSyntax, what, d.i)
	}
}

func (d *dec) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte (0 at end of input).
func (d *dec) peek() byte {
	d.ws()
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// top opens the document. It reports whether there is an object to walk; a
// top-level null decodes to the zero record, as it does into a map, and any
// other value is an error.
func (d *dec) top() bool {
	switch d.peek() {
	case '{':
		return d.open('{')
	case 'n':
		d.skip()
	default:
		d.fail("event is not an object")
	}
	return false
}

// end checks that nothing but whitespace follows the document and returns
// the sticky error.
func (d *dec) end() error {
	if d.ws(); d.err == nil && d.i < len(d.b) {
		d.fail("trailing data")
	}
	return d.err
}

// open consumes bracket ('{' or '[') when the next value is that kind of
// container and reports true; any other value is skipped and open reports
// false.
func (d *dec) open(bracket byte) bool {
	if d.err != nil {
		return false
	}
	if d.peek() != bracket {
		d.skip()
		return false
	}
	if d.depth++; d.depth > maxDepth {
		d.fail("exceeded max depth")
		return false
	}
	d.i++
	d.first = true
	return true
}

// more steps to the next element of the container closed by closer ('}' or
// ']') and reports whether there is one; on false the closing bracket has
// been consumed.
func (d *dec) more(closer byte) bool {
	if d.err != nil {
		return false
	}
	c := d.peek()
	first := d.first
	d.first = false
	switch {
	case c == closer:
		d.i++
		d.depth--
		return false
	case first:
		return true
	case c == ',':
		d.i++
		if d.peek() == closer {
			d.fail("trailing comma")
			return false
		}
		return true
	}
	d.fail("expected ',' or closing bracket")
	return false
}

// key reads an object member's name and the colon after it. The bytes are
// only valid until the next string is read.
func (d *dec) key() []byte {
	if d.err != nil {
		return nil
	}
	if d.peek() != '"' {
		d.fail("expected member name")
		return nil
	}
	k := d.stringBytes()
	if d.peek() != ':' {
		d.fail("expected ':'")
		return nil
	}
	d.i++
	return k
}

// str reads one value, returning it when it is a string and "" otherwise.
func (d *dec) str() string {
	s, _ := d.strOK()
	return s
}

// strOK is str that also reports whether the value was a string.
func (d *dec) strOK() (string, bool) {
	if d.err != nil {
		return "", false
	}
	if d.peek() != '"' {
		d.skip()
		return "", false
	}
	b := d.stringBytes()
	if d.err != nil {
		return "", false
	}
	return string(b), true
}

// num reads one value, returning it when it is a number and 0 otherwise.
func (d *dec) num() float64 {
	if d.err != nil {
		return 0
	}
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		d.skip()
		return 0
	}
	return d.number()
}

// boolean reads one value, reporting true only for the literal true.
func (d *dec) boolean() bool {
	if d.err != nil {
		return false
	}
	if d.peek() == 't' {
		return d.literal("true")
	}
	d.skip()
	return false
}

// skip validates and discards one value of any type.
func (d *dec) skip() {
	if d.err != nil {
		return
	}
	switch c := d.peek(); {
	case c == '"':
		d.stringBytes()
	case c == '{':
		if d.open('{') {
			for d.more('}') {
				d.key()
				d.skip()
			}
		}
	case c == '[':
		if d.open('[') {
			for d.more(']') {
				d.skip()
			}
		}
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '-' || (c >= '0' && c <= '9'):
		d.number()
	default:
		d.fail("expected a value")
	}
}

func (d *dec) literal(lit string) bool {
	if len(d.b)-d.i < len(lit) || string(d.b[d.i:d.i+len(lit)]) != lit {
		d.fail("invalid literal")
		return false
	}
	d.i += len(lit)
	return true
}

// number scans a number by the JSON grammar and converts it the way
// encoding/json converts numbers bound for an interface: ParseFloat, with a
// value out of float64's range an error.
func (d *dec) number() float64 {
	start := d.i
	b := d.b
	i := d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		d.i = i
		d.fail("invalid number")
		return 0
	}
	if i < len(b) && b[i] == '.' {
		i++
		digits := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if i == digits {
			d.i = i
			d.fail("invalid number")
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		digits := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if i == digits {
			d.i = i
			d.fail("invalid number")
			return 0
		}
	}
	d.i = i
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		d.i = start
		d.fail("number out of range")
		return 0
	}
	return f
}

// stringBytes reads the string the cursor is on (d.b[d.i] == '"') and returns
// its decoded bytes: a slice of the input when the string holds no escapes
// and is valid UTF-8, else the scratch buffer.
func (d *dec) stringBytes() []byte {
	b := d.b
	start := d.i + 1
	high := false
	for j := start; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			d.i = j + 1
			raw := b[start:j]
			if high && !utf8.Valid(raw) {
				return d.unquote(raw)
			}
			return raw
		case c == '\\':
			return d.escaped(start, j)
		case c < 0x20:
			d.i = j
			d.fail("control character in string")
			return nil
		case c >= utf8.RuneSelf:
			high = true
		}
	}
	d.i = len(b)
	d.fail("unterminated string")
	return nil
}

// escaped finishes scanning a string that holds a backslash at b[j]: it finds
// the closing quote, validating escapes, then unquotes.
func (d *dec) escaped(start, j int) []byte {
	b := d.b
	for j < len(b) {
		switch c := b[j]; {
		case c == '"':
			d.i = j + 1
			return d.unquote(b[start:j])
		case c == '\\':
			j++
			if j >= len(b) {
				break
			}
			switch b[j] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if j+4 >= len(b) || !isHex4(b[j+1:j+5]) {
					d.i = j
					d.fail("invalid \\u escape")
					return nil
				}
				j += 4
			default:
				d.i = j
				d.fail("invalid escape")
				return nil
			}
		case c < 0x20:
			d.i = j
			d.fail("control character in string")
			return nil
		}
		j++
	}
	d.i = len(b)
	d.fail("unterminated string")
	return nil
}

func isHex4(b []byte) bool {
	for _, c := range b {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return false
		}
	}
	return true
}

func hex4(b []byte) rune {
	var r rune
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote decodes an already validated string body into the scratch buffer
// with encoding/json's rules: escapes resolved, a surrogate pair joined, and
// a lone surrogate or an invalid UTF-8 byte replaced by U+FFFD.
func (d *dec) unquote(s []byte) []byte {
	out := d.buf[:0]
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			i++
			switch s[i] {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(s[i+1 : i+5])
				i += 4
				if utf16.IsSurrogate(r) {
					// A valid pair is two \u escapes back to back.
					if i+6 < len(s) && s[i+1] == '\\' && s[i+2] == 'u' && isHex4(s[i+3:i+7]) {
						if dec := utf16.DecodeRune(r, hex4(s[i+3:i+7])); dec != utf8.RuneError {
							out = utf8.AppendRune(out, dec)
							i += 7
							continue
						}
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
			default: // '"', '\\', '/'
				out = append(out, s[i])
			}
			i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	d.buf = out
	return out
}
