// Package jsonx is the reflection-free half of the JSON codec for the
// closed schema one admission serializes: the request's EnvSpec, the
// reply's MappingSpec and the WAL's admit/release/migrate records. It
// never decides what is valid JSON or how a value is spelled — that
// stays with encoding/json. Both directions handle only a plain subset
// and *decline* everything else, and every caller answers a decline by
// running encoding/json over the same input:
//
//   - Scanner accepts objects, arrays, unescaped ASCII strings,
//     integer literals of at most 18 digits, number literals
//     strconv.ParseFloat takes without a range error, true and false.
//     null, string escapes, bytes outside 0x20..0x7f inside strings and
//     malformed syntax decline. Schema rules (unknown, duplicate or
//     differently-cased keys) are the caller's, through Fail and Once.
//   - The Append helpers emit what json.Marshal emits for finite floats
//     and for strings it would not escape; NaN, ±Inf and any other
//     string decline.
//
// So the accept/reject set, the error texts and the bytes on disk are
// encoding/json's by construction; the differential fuzz targets in
// internal/spec and internal/wal hold the two to it.
package jsonx

import (
	"math"
	"strconv"
	"sync"
)

// Appender is implemented by the schema's types. AppendJSON appends the
// value's compact JSON — byte for byte what json.Marshal produces — to
// dst, or reports false when the value lies outside the plain subset;
// the bytes appended by a declined call are garbage.
type Appender interface {
	AppendJSON(dst []byte) ([]byte, bool)
}

// AppendString appends s quoted. It clears *ok when encoding/json would
// spell s any other way: escapes for ", \, control bytes and the HTML
// set <, >, &, and anything at or above 0x7f (UTF-8 validation,
// U+2028/U+2029).
func AppendString(dst []byte, s string, ok *bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			*ok = false
			return dst
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendFloat appends f the way encoding/json formats a float64: the
// shortest representation that round-trips, in 'f' form except below
// 1e-6 and from 1e21 up, where it is 'e' form with a two-digit exponent
// trimmed to one. NaN and ±Inf, which encoding/json refuses, clear *ok.
func AppendFloat(dst []byte, f float64, ok *bool) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		*ok = false
		return dst
	}
	abs := math.Abs(f)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	// e-09 → e-9, as encoding/json cleans it up.
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// AppendInts appends a as a JSON array; a nil slice is null.
func AppendInts(dst []byte, a []int) []byte {
	if a == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, n := range a {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	return append(dst, ']')
}

// Buffer is a pooled byte slice for one encode or one request body.
type Buffer struct{ B []byte }

// maxPooled bounds what Put keeps: a rare 30 MB body must not pin 30 MB
// under every pooled buffer for the life of the daemon.
const maxPooled = 1 << 20

var buffers = sync.Pool{New: func() interface{} { return new(Buffer) }}

// GetBuffer returns an empty buffer from the pool.
func GetBuffer() *Buffer {
	b := buffers.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// Put returns b to the pool. Nothing may still alias b.B.
func (b *Buffer) Put() {
	if cap(b.B) <= maxPooled {
		buffers.Put(b)
	}
}

// Scanner walks one JSON value in a byte slice. The first construct
// outside the plain subset makes it sticky-bad: every later call is a
// no-op returning a zero value and More returns false, so a decoder
// reads straight through and asks OK once at the end.
type Scanner struct {
	buf []byte
	pos int
	// first is set between an opening bracket and its first element,
	// where no comma is due.
	first bool
	bad   bool
	// blank is set by every skipped whitespace byte and cleared by Mark.
	blank bool
}

// Reset points the scanner at the start of b.
func (s *Scanner) Reset(b []byte) { *s = Scanner{buf: b} }

// OK reports whether everything scanned so far was accepted.
func (s *Scanner) OK() bool { return !s.bad }

// Fail declines the input on the caller's behalf.
func (s *Scanner) Fail() { s.bad = true }

// Once declines a key seen before: encoding/json lets the last
// duplicate win, merging into the first, which is not worth imitating.
func (s *Scanner) Once(seen *uint, bit uint) {
	if *seen&bit != 0 {
		s.bad = true
	}
	*seen |= bit
}

// peek skips whitespace and returns the next byte without consuming it;
// 0 at the end of the input or when the scanner is bad.
//
//hmn:noalloc
func (s *Scanner) peek() byte {
	if s.bad {
		return 0
	}
	for s.pos < len(s.buf) {
		switch c := s.buf[s.pos]; c {
		case ' ', '\t', '\r', '\n':
			s.pos++
			s.blank = true
		default:
			return c
		}
	}
	return 0
}

// Mark skips to the next value and returns its offset, for Since. One
// mark is live at a time: a second one forgets the blanks the first saw.
func (s *Scanner) Mark() int {
	s.peek()
	s.blank = false
	return s.pos
}

// Since returns the input from mark to the end of the value just
// scanned, aliasing it, and whether that span is compact: accepted so
// far and free of whitespace between its tokens.
func (s *Scanner) Since(mark int) (span []byte, compact bool) {
	return s.buf[mark:s.pos], !s.bad && !s.blank
}

// expect consumes c, which must be the next non-blank byte.
func (s *Scanner) expect(c byte) {
	if s.peek() != c {
		s.bad = true
		return
	}
	s.pos++
}

// Open consumes an opening '{' or '['.
func (s *Scanner) Open(c byte) {
	s.expect(c)
	s.first = true
}

// More steps to the next element of the array or object that end
// closes: it consumes the comma due between elements and reports true,
// or consumes end and reports false.
//
//hmn:noalloc
func (s *Scanner) More(end byte) bool {
	c := s.peek()
	first := s.first
	s.first = false
	switch {
	case c == end:
		s.pos++
		return false
	case first:
		return !s.bad
	case c == ',':
		s.pos++
		return true
	}
	s.bad = true
	return false
}

// End reports whether the scan succeeded and only whitespace is left.
func (s *Scanner) End() bool { return s.peek() == 0 && !s.bad && s.pos == len(s.buf) }

// Key scans an object key and its colon. The result aliases the input.
func (s *Scanner) Key() []byte {
	k := s.str()
	s.expect(':')
	return k
}

// String scans a string value, copied out of the input.
func (s *Scanner) String() string { return string(s.str()) }

// str scans a string and returns its contents, which alias the input.
//
//hmn:noalloc
func (s *Scanner) str() []byte {
	s.expect('"')
	if s.bad {
		return nil
	}
	start := s.pos
	for i := start; i < len(s.buf); i++ {
		switch c := s.buf[i]; {
		case c == '"':
			s.pos = i + 1
			return s.buf[start:i]
		case c < 0x20, c >= 0x80, c == '\\':
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// Bool scans true or false.
func (s *Scanner) Bool() bool {
	c := s.peek()
	rest := s.buf[s.pos:]
	switch {
	case c == 't' && len(rest) >= 4 && string(rest[:4]) == "true":
		s.pos += 4
		return true
	case c == 'f' && len(rest) >= 5 && string(rest[:5]) == "false":
		s.pos += 5
		return false
	}
	s.bad = true
	return false
}

// digits consumes a run of decimal digits, at least one.
func (s *Scanner) digits() {
	start := s.pos
	for s.pos < len(s.buf) && s.buf[s.pos]-'0' <= 9 {
		s.pos++
	}
	if s.pos == start {
		s.bad = true
	}
}

// integer consumes -?(0|[1-9][0-9]*) and returns the literal.
//
//hmn:noalloc
func (s *Scanner) integer() []byte {
	if s.peek() == 0 {
		s.bad = true
		return nil
	}
	start := s.pos
	if s.buf[s.pos] == '-' {
		s.pos++
	}
	if s.pos < len(s.buf) && s.buf[s.pos] == '0' {
		s.pos++
	} else {
		s.digits()
	}
	return s.buf[start:s.pos]
}

// Uint64 scans a non-negative integer literal of at most 18 digits.
// Whatever follows it — a fraction, an exponent, more digits after a
// leading zero — is not a separator, so More declines the value.
//
//hmn:noalloc
func (s *Scanner) Uint64() uint64 {
	lit := s.integer()
	if s.bad || lit[0] == '-' || len(lit) > 18 {
		s.bad = true
		return 0
	}
	var n uint64
	for _, c := range lit {
		n = n*10 + uint64(c-'0')
	}
	return n
}

// Int64 scans an integer literal of at most 18 digits.
//
//hmn:noalloc
func (s *Scanner) Int64() int64 {
	lit := s.integer()
	if s.bad {
		return 0
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 18 {
		s.bad = true
		return 0
	}
	var n int64
	for _, c := range lit {
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n
}

// Int scans an integer literal that fits an int.
func (s *Scanner) Int() int {
	n := s.Int64()
	if int64(int(n)) != n {
		s.bad = true
	}
	return int(n)
}

// Float64 scans a JSON number literal and converts it with
// strconv.ParseFloat, as encoding/json does; a range error declines.
func (s *Scanner) Float64() float64 {
	lit := s.integer()
	if s.bad {
		return 0
	}
	start := s.pos - len(lit)
	if s.pos < len(s.buf) && s.buf[s.pos] == '.' {
		s.pos++
		s.digits()
	}
	if s.pos < len(s.buf) && s.buf[s.pos]|0x20 == 'e' {
		s.pos++
		if s.pos < len(s.buf) && (s.buf[s.pos] == '+' || s.buf[s.pos] == '-') {
			s.pos++
		}
		s.digits()
	}
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(s.buf[start:s.pos]), 64)
	if err != nil {
		s.bad = true
	}
	return f
}
