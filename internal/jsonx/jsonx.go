// Package jsonx is the reflection-free half of the JSON codec for the
// closed schema one admission serializes: the request's EnvSpec, the
// reply's MappingSpec and the WAL's admit and release records. It
// never decides what is valid JSON or how a value is spelled — that
// stays with encoding/json. Both directions handle only the subset the
// daemon's own writers and its clients produce and *decline* everything
// else, and every caller answers a decline by running encoding/json
// over the same input:
//
//   - Scanner accepts compact JSON — no whitespace between tokens —
//     made of objects, arrays, unescaped ASCII strings, integer literals
//     of at most 18 digits, number literals strconv.ParseFloat takes
//     without a range error, true and false. Blanks, null, string
//     escapes, bytes outside 0x20..0x7f inside strings and malformed
//     syntax decline. Schema rules are the caller's: a decoder reads
//     every key through Field against its type's Keys, and keys must
//     come in the order json.Marshal writes them, any of them omitted; a
//     key out of that order — repeated, unknown or differently cased
//     included — declines, and so does a value the decoder cannot use,
//     through Fail. Who converts a number changes nothing in that set:
//     AppendInts reads a whole int array in one loop; Int64 and Uint64
//     accumulate the digits they check, and Float64 rounds a plain
//     decimal of at most 19 significant digits and 19 fraction digits
//     itself, exactly, in the pass that checks its grammar, leaving
//     strconv.ParseFloat every other literal — so every accepted number
//     has strconv's bits.
//   - The Append helpers emit what json.Marshal emits for finite floats
//     and for strings it would not escape; NaN, ±Inf and any other
//     string decline.
//
// So the accept/reject set, the error texts and the bytes on disk are
// encoding/json's by construction; the differential fuzz targets in
// internal/spec and internal/wal hold the two to it.
package jsonx

import (
	"encoding/binary"
	"math"
	"math/bits"
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

// Scanner walks one compact JSON value in a byte slice. The first
// construct outside the subset makes it sticky-bad: every later call is
// a no-op returning a zero value and More returns false, so a decoder
// reads straight through and asks OK once at the end.
type Scanner struct {
	buf []byte
	pos int
	// first is set between an opening bracket and its first element,
	// where no comma is due.
	first bool
	bad   bool
}

// Reset points the scanner at the start of b.
func (s *Scanner) Reset(b []byte) { *s = Scanner{buf: b} }

// OK reports whether everything scanned so far was accepted.
func (s *Scanner) OK() bool { return !s.bad }

// Fail declines the input on the caller's behalf.
func (s *Scanner) Fail() { s.bad = true }

// peek returns the next byte without consuming it; 0 at the end of the
// input or when the scanner is bad.
func (s *Scanner) peek() byte {
	if s.pos < len(s.buf) && !s.bad {
		return s.buf[s.pos]
	}
	return 0
}

// Mark returns the offset of the next value, for Since.
func (s *Scanner) Mark() int { return s.pos }

// Since returns the input from mark to the end of the value just
// scanned, aliasing it. Once the scan is accepted, those are the
// value's own compact bytes.
func (s *Scanner) Since(mark int) []byte { return s.buf[mark:s.pos] }

// expect consumes c, which must be the next byte.
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
func (s *Scanner) More(end byte) bool {
	switch c := s.peek(); {
	case c == end:
		s.pos++
		s.first = false
		return false
	case s.first && c != 0:
		s.first = false
		return true
	case c == ',':
		s.pos++
		return true
	}
	s.bad = true
	return false
}

// End reports whether the scan succeeded and consumed the whole input.
func (s *Scanner) End() bool { return !s.bad && s.pos == len(s.buf) }

// Keys is the key list of one object type in the order json.Marshal
// writes it, each kept as the literal that spells it with its colon.
type Keys struct{ lits []string }

// NewKeys returns the Keys of an object type whose fields json.Marshal
// writes under names, in that order, each one the scanner reads
// unescaped.
func NewKeys(names ...string) *Keys {
	k := &Keys{lits: make([]string, len(names))}
	for i, n := range names {
		// Field may take a literal in place of scanning the key only if
		// scanning it gives the key back.
		lit := `"` + n + `":`
		var s Scanner
		s.Reset([]byte(lit))
		key := s.str()
		if s.expect(':'); string(key) != n || !s.End() {
			panic("jsonx: key " + strconv.Quote(n) + " does not scan as itself")
		}
		k.lits[i] = lit
	}
	return k
}

// Fields is what Field knows of one object being scanned: the index of
// the first key that may still come. The zero value starts an object.
type Fields struct{ next int }

// Field consumes the key of the object member the scanner stands at,
// and its colon, and returns the key's index in k. Keys must come in k's
// order, any of them omitted: one that is not in k after the keys f has
// seen — unknown, differently cased or repeated — declines the input
// and returns -1. encoding/json also takes keys in any order, matches
// them case-insensitively and lets the last duplicate win, merging into
// the first; none of that is worth imitating.
func (s *Scanner) Field(k *Keys, f *Fields) int {
	rest := s.buf[s.pos:]
	for i := f.next; i < len(k.lits) && !s.bad; i++ {
		if lit := k.lits[i]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
			s.pos += len(lit)
			f.next = i + 1
			return i
		}
	}
	s.bad = true
	return -1
}

// String scans a string value, copied out of the input.
func (s *Scanner) String() string { return string(s.str()) }

// StringOf is String returning the first of known the value spells
// instead of a copy: a decoder that reads the same strings record after
// record — a log's kinds and session IDs, the guest names of one
// environment admitted again and again — hands them on without copying
// each once more.
func (s *Scanner) StringOf(known ...string) string {
	b := s.str()
	for _, k := range known {
		if string(b) == k {
			return k
		}
	}
	return string(b)
}

// str scans a string and returns its contents, which alias the input.
// It looks for the closing quote eight bytes at a time.
func (s *Scanner) str() []byte {
	s.expect('"')
	if s.bad {
		return nil
	}
	b, start := s.buf, s.pos
	i := start
	for ; i+8 <= len(b); i += 8 {
		if m := special(binary.LittleEndian.Uint64(b[i:])); m != 0 {
			i += bits.TrailingZeros64(m) >> 3
			break
		}
	}
	for ; i < len(b); i++ {
		if c := b[i]; c == '"' || c == '\\' || c < 0x20 || c >= 0x80 {
			break
		}
	}
	if i < len(b) && b[i] == '"' {
		s.pos = i + 1
		return b[start:i]
	}
	s.bad = true
	return nil
}

// special sets the top bit of every byte of w, read little-endian, that
// a plain string ends at or cannot hold: '"', '\\', below 0x20, from
// 0x80 up. The lowest mark is exact; a borrow out of a marked byte may
// mark one above it.
func special(w uint64) uint64 {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	q, bs := w^(lo*'"'), w^(lo*'\\')
	return ((q - lo) | (bs - lo) | (w - lo*0x20) | w) & hi
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

// natural consumes 0|[1-9][0-9]* where the scanner stands and returns
// its value; more than 18 digits decline.
func (s *Scanner) natural() uint64 {
	b, i := s.buf, s.pos
	if i < len(b) && b[i] == '0' {
		s.pos++
		return 0
	}
	var n uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	if d := i - s.pos; d == 0 || d > 18 {
		s.bad = true
		return 0
	}
	s.pos = i
	return n
}

// Uint64 scans a non-negative integer literal of at most 18 digits.
// Whatever follows it — a fraction, an exponent, more digits after a
// leading zero — is not a separator, so More declines the value.
func (s *Scanner) Uint64() uint64 {
	if c := s.peek(); c == 0 || c == '-' {
		s.bad = true
		return 0
	}
	return s.natural()
}

// Int64 scans an integer literal of at most 18 digits.
func (s *Scanner) Int64() int64 {
	switch s.peek() {
	case 0:
		s.bad = true
		return 0
	case '-':
		s.pos++
		return -int64(s.natural())
	}
	return int64(s.natural())
}

// Int scans an integer literal that fits an int.
func (s *Scanner) Int() int {
	n := s.Int64()
	if int64(int(n)) != n {
		s.bad = true
	}
	return int(n)
}

// AppendInts scans an array of integer literals, each of at most 18
// digits and fitting an int, and appends them to dst: Open, More and Int
// in one loop.
func (s *Scanner) AppendInts(dst []int) []int {
	if s.peek() != '[' {
		s.bad = true
		return dst
	}
	b, i := s.buf, s.pos+1
	if i < len(b) && b[i] == ']' {
		s.pos = i + 1
		return dst
	}
	for {
		neg := i < len(b) && b[i] == '-'
		if neg {
			i++
		}
		var n uint64
		if i < len(b) && b[i] == '0' {
			i++
		} else {
			j := i
			for ; i < len(b) && b[i]-'0' <= 9; i++ {
				n = n*10 + uint64(b[i]-'0')
			}
			if d := i - j; d == 0 || d > 18 || int64(int(n)) != int64(n) {
				break
			}
		}
		v := int(n)
		if neg {
			v = -v
		}
		dst = append(dst, v)
		if i == len(b) || b[i] != ',' {
			if i < len(b) && b[i] == ']' {
				s.pos = i + 1
				return dst
			}
			break
		}
		i++
	}
	s.pos = i
	s.bad = true
	return dst
}

// List scans an array, each element by next; [] is empty, not nil.
func List[T any](s *Scanner, next func() T) []T {
	out := []T{}
	for s.Open('['); s.More(']'); {
		out = append(out, next())
	}
	return out
}

// Float64 scans a JSON number literal and returns the float64 nearest
// to it, ties to even — strconv.ParseFloat's result, as encoding/json
// uses, bit for bit. A literal with no exponent part, at most 19
// significant digits and at most 19 digits after the point is converted
// in the same pass that scans it, by round; every other one goes to
// strconv.ParseFloat over the same bytes, and a range error declines.
func (s *Scanner) Float64() float64 {
	c := s.peek()
	if c == 0 {
		s.bad = true
		return 0
	}
	b, i := s.buf, s.pos
	if c == '-' {
		i++
	}
	// mant takes every digit after the leading zeros; past 19 it wraps,
	// and sig > 19 sends the literal to strconv. pow is 10^k while the k
	// fraction digits are at most 19.
	var mant uint64
	pow := uint64(1)
	sig, k := 0, 0
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		j := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		if sig = i - j; sig == 0 {
			s.bad = true
			return 0
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		if sig == 0 {
			for ; i < len(b) && b[i] == '0'; i++ {
				pow *= 10
			}
		}
		z := i
		for ; i+8 <= len(b); i += 8 {
			d, ok := eightDigits(binary.LittleEndian.Uint64(b[i:]))
			if !ok {
				break
			}
			mant = mant*1e8 + d
			pow *= 1e8
		}
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
			pow *= 10
		}
		if k = i - j; k == 0 {
			s.bad = true
			return 0
		}
		sig += i - z
	}
	exp := i < len(b) && b[i]|0x20 == 'e'
	if exp {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		if i == j {
			s.bad = true
			return 0
		}
	}
	lit := b[s.pos:i]
	s.pos = i
	if !exp && sig <= 19 {
		if f, ok := round(mant, pow, k); ok {
			if c == '-' {
				f = -f
			}
			return f
		}
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.bad = true
	}
	return f
}

// eightDigits reports whether the eight bytes of w, read little-endian,
// are all decimal digits, and returns the number they spell.
func eightDigits(w uint64) (uint64, bool) {
	const zeros, nibbles = 0x3030303030303030, 0xf0f0f0f0f0f0f0f0
	// A digit's high nibble is 3, and stays 3 when 6 is added.
	if w&nibbles|((w+0x0606060606060606)&nibbles)>>4 != zeros|zeros>>4 {
		return 0, false
	}
	w -= zeros
	w = w*10 + w>>8 // every other byte: the two digits from it, as 0..99
	const pairs = 0x000000ff000000ff
	w = ((w&pairs)*(100+1000000<<32) + (w>>16&pairs)*(1+10000<<32)) >> 32
	return uint64(uint32(w)), true
}

// round returns mant / 10^k rounded to the nearest float64, ties to
// even, for mant < 10^19; pow is 10^k when k ≤ 19. It reports false when
// k is larger and strconv must decide.
func round(mant, pow uint64, k int) (float64, bool) {
	if k > 19 {
		return 0, false
	}
	if mant < 1<<53 {
		// Clinger: both operands are exact, so the quotient is rounded
		// once.
		return float64(mant) / float64(pow), true
	}
	// q = ⌊mant·2^sh / 10^k⌋ lies in [2^62, 2^64), so it holds the
	// 53 bits kept, the rounding bit and more; the remainder r is
	// the sticky bit below them.
	sh := uint(63 - bits.Len64(mant) + bits.Len64(pow))
	var hi, lo uint64
	if sh < 64 {
		hi, lo = mant>>(64-sh), mant<<sh
	} else {
		hi = mant << (sh - 64)
	}
	q, r := bits.Div64(hi, lo, pow)
	drop := uint(bits.Len64(q) - 53)
	m, rest, half := q>>drop, q&(1<<drop-1), uint64(1)<<(drop-1)
	if rest > half || rest == half && (r != 0 || m&1 != 0) {
		m++
	}
	// The value is m·2^(drop−sh), m in [2^52, 2^53]: always a normal
	// float64, since 10^-19 ≤ mant / 10^k < 10^19. m's leading bit
	// adds one to the exponent field, two when rounding carried it
	// to 2^53.
	e := uint64(int(drop) - int(sh) + 52 + 1022)
	return math.Float64frombits(e<<52 + m), true
}
