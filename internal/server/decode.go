// decode.go turns a request body into a Request in one pass. readBody reads
// the body once into one buffer, grown as the bytes arrive up to the
// declared Content-Length, and parseRequest decodes that buffer against the
// one schema the daemon accepts, unescaping every string in place so that
// each source costs one allocation: its Go string. It accepts exactly the
// documents encoding/json (with DisallowUnknownFields) accepts for Request
// and yields the same value, with one deliberate difference: only
// whitespace may follow the document.
// decode_test.go holds the encoding/json reference and the differential
// fuzz target that compares the two.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// Body buffers grow only as bytes arrive, so what a request holds is bounded
// by what its client has sent, not by the length it declares: a client that
// declares the largest body and then stalls holds at most firstBodyBuffer
// bytes. The large growth factor keeps the garbage of a multi-megabyte body
// to its first buffer (the corpus bodies are 0.1–3.8 MB).
const (
	firstBodyBuffer = 256 << 10
	bodyGrowth      = 16
)

// readBody reads the whole body into one buffer. The first buffer takes a
// small declared body whole, one byte over its length so that the read that
// reports EOF needs no growth; each growth multiplies the buffer by
// bodyGrowth, capped at that declared size, or at limit+1 without a length
// (or once the body runs past it). A body that reaches limit+1 bytes, or
// declares more than limit, is refused whole with 413.
func readBody(body io.Reader, contentLength, limit int64) ([]byte, *apiError) {
	tooBig := func() *apiError {
		return errf(http.StatusRequestEntityTooLarge, CodeBodyTooBig,
			"request body exceeds %d bytes", limit)
	}
	if contentLength > limit {
		return nil, tooBig()
	}
	// One byte past limit shows a body is too big, so no buffer needs more
	// than limit+1 bytes; a declared body needs one byte past its length.
	most := limit
	if most < math.MaxInt64 {
		most++
	}
	want := most
	if contentLength >= 0 && contentLength < most {
		want = contentLength + 1
	}
	buf := make([]byte, 0, min(want, firstBodyBuffer))
	for {
		if len(buf) == cap(buf) {
			if int64(len(buf)) >= want { // the body ran past its declared length
				want = most
			}
			next := want
			if c := int64(cap(buf)); c < want/bodyGrowth {
				next = c * bodyGrowth
			}
			grown := make([]byte, len(buf), next)
			copy(grown, buf)
			buf = grown
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case int64(len(buf)) > limit:
			return nil, tooBig()
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return nil, errf(http.StatusBadRequest, CodeBadRequest, "reading request body: %v", err)
		}
	}
}

// parseRequest decodes body into req. It unescapes strings in place, which
// overwrites body; the decoded strings do not alias it.
func parseRequest(body []byte, req *Request) error {
	d := decoder{buf: body}
	d.skipSpace()
	var err error
	switch d.peek() {
	case '{':
		err = d.request(req)
	case 'n':
		err = d.literal("null") // leaves req zero, as encoding/json does
	default:
		err = d.mismatch("request body", "an object")
	}
	if err != nil {
		return err
	}
	d.skipSpace()
	if d.pos < len(d.buf) {
		return fmt.Errorf("trailing data after the JSON document at offset %d", d.pos)
	}
	return nil
}

// decoder is a cursor over one request body. Every value it meets must fit
// the schema, so it never skips a value: an unknown field or a value of the
// wrong kind ends the decode, as both are errors under encoding/json's
// DisallowUnknownFields.
type decoder struct {
	buf []byte
	pos int
}

// peek returns the byte at the cursor, or 0 at the end of the input (0 is
// not valid JSON outside a string either, so every caller rejects it).
func (d *decoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *decoder) syntax(context string) error {
	if d.pos >= len(d.buf) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d %s", d.buf[d.pos], d.pos, context)
}

// mismatch reports a value of the wrong kind for field.
func (d *decoder) mismatch(field, want string) error {
	var got string
	switch c := d.peek(); {
	case c == '{':
		got = "an object"
	case c == '[':
		got = "an array"
	case c == '"':
		got = "a string"
	case c == 't' || c == 'f':
		got = "a boolean"
	case c == '-' || '0' <= c && c <= '9':
		got = "a number"
	default:
		return d.syntax("looking for the beginning of a value")
	}
	return fmt.Errorf("%s: want %s, got %s at offset %d", field, want, got, d.pos)
}

// literal consumes true, false or null.
func (d *decoder) literal(word string) error {
	if !bytes.HasPrefix(d.buf[d.pos:], []byte(word)) {
		return d.syntax("in literal " + word)
	}
	d.pos += len(word)
	return nil
}

// object walks the object at the cursor, calling member for each member
// with its unescaped key and the cursor on its value.
func (d *decoder) object(member func(key []byte) error) error {
	d.pos++ // '{'
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("looking for the beginning of an object key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.peek() != ':' {
			return d.syntax("after an object key")
		}
		d.pos++
		d.skipSpace()
		if err := member(key); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case '}':
			d.pos++
			return nil
		default:
			return d.syntax("after an object member")
		}
	}
}

// fieldIs matches an object key to a struct field name the way
// encoding/json does: exactly, or else under Unicode case folding.
func fieldIs(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

func (d *decoder) request(req *Request) error {
	return d.object(func(key []byte) error {
		switch {
		case fieldIs(key, "sources"):
			return d.sources(&req.Sources)
		case fieldIs(key, "root"):
			return d.stringField("root", &req.Root)
		case fieldIs(key, "entries"):
			return d.stringSlice("entries", &req.Entries)
		case fieldIs(key, "options"):
			return d.options(&req.Options)
		case fieldIs(key, "budget"):
			return d.budget(&req.Budget)
		}
		return fmt.Errorf("unknown field %q", key)
	})
}

func (d *decoder) options(o *RequestOptions) error {
	switch d.peek() {
	case 'n':
		return d.literal("null") // a null struct is left as it is
	case '{':
	default:
		return d.mismatch("options", "an object")
	}
	return d.object(func(key []byte) error {
		switch {
		case fieldIs(key, "parallel"):
			return decodeInt(d, "options.parallel", &o.Parallel, strconv.IntSize)
		case fieldIs(key, "no_guard_refinement"):
			return d.boolField("options.no_guard_refinement", &o.NoGuardRefinement)
		case fieldIs(key, "magic_quotes"):
			return d.boolField("options.magic_quotes", &o.MagicQuotes)
		case fieldIs(key, "xss"):
			return d.boolField("options.xss", &o.XSS)
		case fieldIs(key, "incremental"):
			return d.boolField("options.incremental", &o.Incremental)
		case fieldIs(key, "emit_pack"):
			return d.boolField("options.emit_pack", &o.EmitPack)
		}
		return fmt.Errorf("unknown field %q in options", key)
	})
}

func (d *decoder) budget(b *RequestBudget) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("budget", "an object")
	}
	return d.object(func(key []byte) error {
		switch {
		case fieldIs(key, "timeout_ms"):
			return decodeInt(d, "budget.timeout_ms", &b.TimeoutMS, 64)
		case fieldIs(key, "hotspot_timeout_ms"):
			return decodeInt(d, "budget.hotspot_timeout_ms", &b.HotspotTimeoutMS, 64)
		case fieldIs(key, "max_steps"):
			return decodeInt(d, "budget.max_steps", &b.MaxSteps, 64)
		case fieldIs(key, "max_mem_bytes"):
			return decodeInt(d, "budget.max_mem_bytes", &b.MaxMemBytes, 64)
		}
		return fmt.Errorf("unknown field %q in budget", key)
	})
}

// sources decodes the path→source map. Repeated "sources" members merge
// into one map and a null member clears it; a null value stores "".
func (d *decoder) sources(m *map[string]string) error {
	switch d.peek() {
	case 'n':
		*m = nil
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("sources", "an object")
	}
	if *m == nil {
		*m = map[string]string{}
	}
	return d.object(func(key []byte) error {
		path := string(key)
		switch d.peek() {
		case '"':
			src, err := d.str()
			if err != nil {
				return err
			}
			(*m)[path] = string(src)
			return nil
		case 'n':
			(*m)[path] = ""
			return d.literal("null")
		}
		return d.mismatch("sources value", "a string")
	})
}

// stringSlice decodes a string array the way encoding/json's reflection
// does, down to what a repeated member leaves behind: elements are decoded
// into the existing slice, a null element keeps the value already at its
// index, and an empty array is an empty, non-nil slice.
func (d *decoder) stringSlice(field string, dst *[]string) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch(field, "an array")
	}
	d.pos++
	d.skipSpace()
	s, i := *dst, 0
	if d.peek() != ']' {
		for ; ; i++ {
			if i >= len(s) {
				if i >= cap(s) {
					s = append(s[:cap(s)], "")
				}
				s = s[:i+1]
			}
			if err := d.stringField(field, &s[i]); err != nil {
				return err
			}
			d.skipSpace()
			if d.peek() == ']' {
				i++
				break
			}
			if d.peek() != ',' {
				return d.syntax("after an array element")
			}
			d.pos++
			d.skipSpace()
		}
	}
	d.pos++ // ']'
	if i == 0 {
		s = []string{}
	}
	*dst = s[:i]
	return nil
}

// stringField decodes a string; null leaves dst as it is.
func (d *decoder) stringField(field string, dst *string) error {
	switch d.peek() {
	case '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		*dst = string(s)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch(field, "a string")
}

// boolField decodes a boolean; null leaves dst as it is.
func (d *decoder) boolField(field string, dst *bool) error {
	switch d.peek() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.mismatch(field, "a boolean")
}

// decodeInt decodes an integer of the given bit size; null leaves dst as it
// is. A fraction, an exponent or an out-of-range value is an error even
// when the value is integral, as strconv.ParseInt makes it.
func decodeInt[T int | int64](d *decoder, field string, dst *T, bits int) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return d.mismatch(field, "an integer")
	}
	start := d.pos
	if err := d.number(); err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(d.buf[start:d.pos]), 10, bits)
	if err != nil {
		return fmt.Errorf("%s: number %s at offset %d is not a %d-bit integer",
			field, d.buf[start:d.pos], start, bits)
	}
	*dst = T(n)
	return nil
}

// number consumes one JSON number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() error {
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return d.syntax("in a numeric literal")
	}
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			return d.syntax("after a decimal point in a numeric literal")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return d.syntax("in the exponent of a numeric literal")
		}
	}
	return nil
}

// digits consumes a run of decimal digits and reports whether it was
// nonempty.
func (d *decoder) digits() bool {
	start := d.pos
	for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// strPlain marks the bytes a JSON string holds as they are: printable ASCII
// other than the quote and the backslash.
var strPlain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescapeByte maps the byte after a backslash to what a two-byte escape
// stands for, or 0 when it starts no two-byte escape.
var unescapeByte = [256]byte{'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// str consumes the string at the cursor and returns its unescaped bytes,
// which alias d.buf until the caller copies them. Unescaping works in
// place, over bytes already read: escapes only shrink, and only a replaced
// invalid UTF-8 byte (one byte in, three out) can make the output overtake
// the input, which moves that string to its own buffer. As in
// encoding/json, invalid UTF-8 and unpaired surrogates become U+FFFD.
func (d *decoder) str() ([]byte, error) {
	buf := d.buf
	start := d.pos + 1
	out, inPlace := buf[start:start], true
	for r := start; ; {
		j := r
		for j < len(buf) && strPlain[buf[j]] {
			j++
		}
		out = append(out, buf[r:j]...)
		r = j
		if r >= len(buf) {
			d.pos = r
			return nil, d.syntax("")
		}
		switch c := buf[r]; {
		case c == '"':
			d.pos = r + 1
			return out, nil
		case c == '\\' && r+1 < len(buf) && unescapeByte[buf[r+1]] != 0:
			out = append(out, unescapeByte[buf[r+1]])
			r += 2
		case c == '\\' && r+1 < len(buf) && buf[r+1] == 'u' && uint32(hex4(buf[r+2:])) < utf8.RuneSelf:
			// A \u escape of ASCII, as encoding/json writes '<', '>' and
			// '&' by default (hex4's -1 for bad digits is out of range).
			out = append(out, byte(hex4(buf[r+2:])))
			r += 6
		case c == '\\':
			d.pos = r
			n, rn, err := d.unicodeEscape(buf[r:])
			if err != nil {
				return nil, err
			}
			out = utf8.AppendRune(out, rn)
			r += n
		case c < ' ':
			d.pos = r
			return nil, d.syntax("in a string literal")
		default:
			rn, size := utf8.DecodeRune(buf[r:])
			if rn == utf8.RuneError && size == 1 && inPlace && start+len(out)+3 > r+1 {
				out, inPlace = bytes.Clone(out), false
			}
			out = utf8.AppendRune(out, rn)
			r += size
		}
	}
}

// unicodeEscape decodes the \u escape at the start of s (its backslash) and
// returns its length in bytes and the rune it stands for; any other escape
// here is an error, as str decodes the two-byte ones itself. The escape of
// a surrogate half takes a second \u escape with it when the two form a
// pair, and stands for U+FFFD when they do not.
func (d *decoder) unicodeEscape(s []byte) (int, rune, error) {
	if len(s) < 2 || s[1] != 'u' {
		d.pos += min(len(s), 1)
		return 0, 0, d.syntax("in a string escape")
	}
	rn := hex4(s[2:])
	if rn < 0 {
		d.pos += 2
		for n := 0; n < 4 && d.pos < len(d.buf) && hexVal[d.buf[d.pos]] >= 0; n++ {
			d.pos++
		}
		return 0, 0, d.syntax("in a \\u escape")
	}
	if !utf16.IsSurrogate(rn) {
		return 6, rn, nil
	}
	if len(s) >= 12 && s[6] == '\\' && s[7] == 'u' {
		if pair := utf16.DecodeRune(rn, hex4(s[8:])); pair != utf8.RuneError {
			return 12, pair, nil
		}
	}
	return 6, utf8.RuneError, nil
}

// hex4 decodes four hex digits, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	a, b, c, d := hexVal[s[0]], hexVal[s[1]], hexVal[s[2]], hexVal[s[3]]
	if a|b|c|d < 0 {
		return -1
	}
	return rune(a)<<12 | rune(b)<<8 | rune(c)<<4 | rune(d)
}

// hexVal maps a hex digit to its value and every other byte to -1.
var hexVal = func() (t [256]int8) {
	for i := range t {
		t[i] = -1
	}
	for i, c := range "0123456789abcdef" {
		t[c] = int8(i)
	}
	for i, c := range "ABCDEF" {
		t[c] = int8(10 + i)
	}
	return t
}()
