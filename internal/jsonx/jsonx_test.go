package jsonx

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestAppendFloatMatchesEncodingJSON sweeps random bit patterns and the
// format boundaries: every finite float64 is spelled as json.Marshal
// spells it, and scanning that spelling gives the float back.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fixed := []float64{0, math.Copysign(0, -1), 1e-6, 9.999999999999999e-7, 1e-7, 1e21, 9.999999999999999e20, 1e22,
		5e-324, math.MaxFloat64, -math.MaxFloat64, 1e-9, 1.5e-10, 1e100, 123456789, 0.1, 100}
	for i := 0; i < 200000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if i < len(fixed) {
			f = fixed[i]
		}
		ok := true
		got := AppendFloat(nil, f, &ok)
		want, err := json.Marshal(f)
		if ok != (err == nil) {
			t.Fatalf("%v (%#x): accepted=%v, json.Marshal: %v", f, math.Float64bits(f), ok, err)
		}
		if !ok {
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("%#x: got %s, json.Marshal %s", math.Float64bits(f), got, want)
		}
		var s Scanner
		s.Reset(got)
		if back := s.Float64(); !s.End() || math.Float64bits(back) != math.Float64bits(f) {
			t.Fatalf("scanning %s gave %v, want %v", got, back, f)
		}
	}
}

// TestAppendStringDeclinesWhatJSONEscapes walks every byte value: a
// string is accepted exactly when json.Marshal leaves it as it is.
func TestAppendStringDeclinesWhatJSONEscapes(t *testing.T) {
	for c := 0; c < 256; c++ {
		in := "a" + string([]byte{byte(c)}) + "z"
		ok := true
		got := AppendString(nil, in, &ok)
		want, _ := json.Marshal(in)
		if plain := string(want) == `"`+in+`"`; ok != plain && c != 0x7f {
			t.Fatalf("byte %#x: accepted=%v, json.Marshal wrote %s", c, ok, want)
		}
		if ok && string(got) != string(want) {
			t.Fatalf("byte %#x: got %s, json.Marshal %s", c, got, want)
		}
	}
}

// TestScannerNumbers holds the number scanners to the JSON grammar and
// to the conversions encoding/json applies for each target kind. A blank
// before or after a literal declines by design.
func TestScannerNumbers(t *testing.T) {
	for _, lit := range []string{"0", "-0", "7", "-12", "123456789012345678", "1234567890123456789", "9223372036854775807",
		"01", "-", "+1", "1.", ".5", "1.5", "1e3", "1E+3", "1e", "1e+", "-1.25e-3", "1e400", "-1e400", "1e-400",
		"0x10", "1_0", "Infinity", "NaN", "", " 5", "5 ", "0.0", "00", "-01", "1.0e0",
		"-0.0", "5e-324", "--1", "-.5", "1.-5", "0.5.5", "1e5.5",
		"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740993.0", "9007199254740995.0",
		"-9007199254740993", "4503599627370496.5", "4503599627370497.5",
		"123456789012345", "1234567890.123456", "0.12345678901234567", "123456789.012345678", "1234567890123456789.",
		"1.2345678901234567891", "99999999999999999999", "-123456789012345678",
		"0.0000000000000000001", "0.00000000000000000001", "0.0000000000000000000000001", "0.00000000000000000000001",
		"0.1234567890123456789", "0.12345678901234567890", "0.00000000000000000000000", "0.000000000000000000000001"} {
		plain := strings.TrimSpace(lit) == lit
		var wantF float64
		errF := json.Unmarshal([]byte(lit), &wantF)
		var s Scanner
		s.Reset([]byte(lit))
		gotF := s.Float64()
		if s.End() && (errF != nil || math.Float64bits(gotF) != math.Float64bits(wantF)) {
			t.Errorf("Float64(%q) accepted %v; encoding/json: %v, %v", lit, gotF, wantF, errF)
		}
		if !s.End() && errF == nil && len(lit) < 30 && plain {
			t.Errorf("Float64(%q) declined a plain literal encoding/json takes as %v", lit, wantF)
		}

		if s.End() && !plain {
			t.Errorf("Float64(%q) accepted a blank", lit)
		}

		var wantI int64
		errI := json.Unmarshal([]byte(lit), &wantI)
		s.Reset([]byte(lit))
		gotI := s.Int64()
		if s.End() && (errI != nil || gotI != wantI) {
			t.Errorf("Int64(%q) accepted %d; encoding/json: %d, %v", lit, gotI, wantI, errI)
		}
		if !s.End() && errI == nil && len(lit) <= 18 && plain {
			t.Errorf("Int64(%q) declined a plain literal encoding/json takes as %d", lit, wantI)
		}

		if s.End() && !plain {
			t.Errorf("Int64(%q) accepted a blank", lit)
		}

		var wantU uint64
		errU := json.Unmarshal([]byte(lit), &wantU)
		s.Reset([]byte(lit))
		gotU := s.Uint64()
		if s.End() && (errU != nil || gotU != wantU) {
			t.Errorf("Uint64(%q) accepted %d; encoding/json: %d, %v", lit, gotU, wantU, errU)
		}
		if s.End() && !plain {
			t.Errorf("Uint64(%q) accepted a blank", lit)
		}
	}
}

// TestFloat64MatchesParseFloat is the proof of Float64's own rounding:
// over every family that reaches it — and the edges where a literal
// stops reaching it — the scanner takes a literal exactly when
// strconv.ParseFloat does, and gives the same bits.
func TestFloat64MatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := 0
	check := func(lit string) {
		t.Helper()
		n++
		if !json.Valid([]byte(lit)) {
			t.Fatalf("%q is not a JSON literal", lit)
		}
		want, err := strconv.ParseFloat(lit, 64)
		var s Scanner
		s.Reset([]byte(lit))
		got := s.Float64()
		if s.End() != (err == nil) || err == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Float64(%q) = %v (%#x), accepted=%v; strconv.ParseFloat: %v (%#x), %v",
				lit, got, math.Float64bits(got), s.End(), want, math.Float64bits(want), err)
		}
	}
	finite := func() float64 {
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
				return f
			}
		}
	}
	// digits returns n random decimal digits, the first non-zero.
	digits := func(n int) string {
		b := []byte{byte('1' + rng.Intn(9))}
		for len(b) < n {
			b = append(b, byte('0'+rng.Intn(10)))
		}
		return string(b)
	}
	// point writes d with the point p places from its right, zero-padded
	// on the left as far as that needs.
	point := func(d string, p int) string {
		if p == 0 {
			return d
		}
		for len(d) <= p {
			d = "0" + d
		}
		return d[:len(d)-p] + "." + d[len(d)-p:]
	}
	sign := func(lit string) string {
		if rng.Intn(2) == 0 {
			return "-" + lit
		}
		return lit
	}

	// Random bit patterns in 'f', 'e' and shortest (encoding/json) form.
	for i := 0; i < 100000; i++ {
		f := finite()
		ok := true
		check(strconv.FormatFloat(f, 'f', -1, 64))
		check(strconv.FormatFloat(f, 'e', -1, 64))
		check(string(AppendFloat(nil, f, &ok)))
	}
	// 'f' at every precision, over the magnitudes a spec carries.
	for prec := 0; prec <= 20; prec++ {
		for i := 0; i < 5000; i++ {
			f := math.Pow(10, rng.Float64()*26-6) * (rng.Float64() + 0.5)
			check(sign(strconv.FormatFloat(f, 'f', prec, 64)))
		}
	}
	// 15- to 20-digit mantissas with the point anywhere from the right
	// end to 23 places in: both exact methods, and both sides of their
	// edges at 19 digits, 10^-19 | 10^-20 and 10^-22 | 10^-23.
	for nd := 15; nd <= 20; nd++ {
		for p := 0; p <= 23; p++ {
			for i := 0; i < 400; i++ {
				check(sign(point(digits(nd), p)))
			}
		}
	}
	for _, p := range []int{18, 19, 20, 21, 22, 23} {
		for nd := 1; nd <= 17; nd++ {
			for i := 0; i < 50; i++ {
				check(sign(point(digits(nd), p)))
			}
		}
	}
	// 2^53 ± 1 and the ties around it, then exact ties between two
	// adjacent float64s at random: (2m+1)·2^(e−1) for a 53-bit m, written
	// in full — with the neighbours one unit in the last digit away.
	for _, lit := range []string{"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740993.0",
		"9007199254740994", "9007199254740995", "9007199254740995.0", "9007199254740997.00", "18014398509481986",
		"18014398509481990", "4503599627370496.5", "4503599627370497.5", "2251799813685248.25", "2251799813685248.75",
		// Rounding up carries into the next power of two.
		"9007199254740991.5", "4503599627370495.75", "0.99999999999999999", "9.9999999999999999", "999999999999999.99"} {
		check(lit)
		check("-" + lit)
	}
	for i := 0; i < 5000; i++ {
		odd := (1<<52+uint64(rng.Int63n(1<<52)))*2 + 1
		for j := 4; j >= -10; j-- {
			// (2m+1)·2^−j = (2m+1)·5^j / 10^j.
			num, p := odd, 0
			if j > 0 {
				for ; p < j; p++ {
					num *= 5
				}
			} else {
				num <<= uint(-j)
			}
			if num >= 1e19 {
				continue
			}
			for _, d := range []uint64{num, num - 1, num + 1} {
				check(point(strconv.FormatUint(d, 10), p))
				check(point(strconv.FormatUint(d, 10)+"00", p+2))
			}
		}
	}
	// 0.000…01 and 0.000…0 runs, either side of every edge.
	for z := 0; z <= 30; z++ {
		zeros := strings.Repeat("0", z)
		for _, lit := range []string{"0." + zeros + "1", "0." + zeros + "0", "0." + zeros + "9007199254740993",
			"0." + zeros + "12345678901234567", "1." + zeros + "1"} {
			check(lit)
			check("-" + lit)
		}
	}
	for _, lit := range []string{"0", "-0", "-0.0", "0.0", "1e-400", "-1e-400", "1e400", "-1e400", "5e-324", "4e-324",
		"2e-324", "1.7976931348623157e308", "1.7976931348623159e308", "99999999999999999999", "1234567890123456789.5"} {
		check(lit)
	}
	t.Logf("%d literals bit-identical to strconv.ParseFloat", n)
}

// FuzzScannerFloat64: on any bytes, Float64 then End accepts exactly
// what json.Unmarshal into a float64 accepts — apart from null and
// blanks around the literal, which the scanner declines by design — with
// the same bits.
func FuzzScannerFloat64(f *testing.F) {
	for _, seed := range []string{"0", "-0", "1.5", "123.45678901234567", "9007199254740993.0", "0.0000000000000000001",
		"1e400", "1e-400", "5e-324", "12345678901234567890", " -7.25 ", "01", "1.", "null", `"1"`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want float64
		err := json.Unmarshal(data, &want)
		var s Scanner
		s.Reset(data)
		got := s.Float64()
		switch ok := s.End(); {
		case err == nil && !ok && !bytes.ContainsAny(data, blanks) && string(data) != "null":
			t.Fatalf("declined %q, which json.Unmarshal takes as %v", data, want)
		case err != nil && ok:
			t.Fatalf("accepted %q as %v; json.Unmarshal: %v", data, got, err)
		case ok && math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("%q: got %v (%#x), json.Unmarshal %v (%#x)", data, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// TestNewKeysRejectsUnscannableNames: a key Field would take by its
// literal must be one that scanning the literal gives back; a quote, a
// backslash, a control byte or a non-ASCII byte in a name is refused
// when the Keys are built, not met while decoding.
func TestNewKeysRejectsUnscannableNames(t *testing.T) {
	for _, name := range []string{`a"b`, `a\b`, "a\x01", "café", `a":1,"b`} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewKeys(%q) did not panic", name)
				}
			}()
			NewKeys("ok", name)
		}()
	}
	keys := NewKeys("", "proc_mips", "a<b")
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{`{"":1,"proc_mips":2,"a<b":3}`, []int{0, 1, 2}},
		{`{"":1,"a<b":3}`, []int{0, 2}},
		{`{}`, []int{}},
		// Out of json.Marshal's order, repeated, or a blank before the
		// colon: declined.
		{`{"a<b":1,"":2,"proc_mips":3}`, nil},
		{`{"":1,"":2}`, nil},
		{`{"":1,"proc_mips" :3}`, nil},
	} {
		var s Scanner
		var f Fields
		s.Reset([]byte(tc.in))
		var got []int
		for s.Open('{'); s.More('}'); {
			got = append(got, s.Field(keys, &f))
			s.Int64()
		}
		if took := tc.want != nil; s.End() != took || took && !slices.Equal(got, tc.want) {
			t.Errorf("%s: fields %v, accepted %v; want %v, %v", tc.in, got, s.End(), tc.want, took)
		}
	}
}

// FuzzScannerInts: on any bytes, AppendInts then End accepts exactly
// what json.Unmarshal into a []int accepts, with the same values — apart
// from null, blanks and literals of 19 or more digits, which the scanner
// declines by design.
func FuzzScannerInts(f *testing.F) {
	for _, seed := range []string{"[]", "[0]", "[1,2,3]", " [ -1 , 0 ,\n42\t] ", "[\r]", "[-0]", "[123456789012345678,-123456789012345678]",
		"[1234567890123456789]", "[1,]", "[,1]", "[01]", "[-]", "[1 2]", "[- 1]", "[1.0]", "[1e2]", "[+1]", "[null]", "null",
		"[[1]]", "[1]x", `["1"]`, "[", "[1", "[1,", "", "]"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []int
		err := json.Unmarshal(data, &want)
		var s Scanner
		s.Reset(data)
		got := s.AppendInts([]int{7})
		ok := s.End()
		long := false
		for _, v := range want {
			long = long || v >= 1e18 || v <= -1e18
		}
		switch {
		case err == nil && !ok && !long && !bytes.Contains(data, []byte("null")) && !bytes.ContainsAny(data, blanks):
			t.Fatalf("declined %q, which json.Unmarshal takes as %v", data, want)
		case err != nil && ok:
			t.Fatalf("accepted %q as %v; json.Unmarshal: %v", data, got[1:], err)
		case ok && (got[0] != 7 || !slices.Equal(got[1:], want)):
			t.Fatalf("%q: appended %v to [7], json.Unmarshal %v", data, got, want)
		}
	})
}

// BenchmarkScannerNumbers prices the number scanners on what a spec and
// a WAL record carry: 17-digit shortest-form floats, 1–3-digit path
// ints one at a time and as a mapping's lists of paths (AppendInts),
// and the literals that still go to strconv (an exponent part, a
// 20-digit mantissa).
func BenchmarkScannerNumbers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	array := func(n int, lit func() string) []byte {
		buf := []byte{'['}
		for i := 0; i < n; i++ {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, lit()...)
		}
		return append(buf, ']')
	}
	pathInt := func() string { return strconv.Itoa(rng.Intn(1000)) }
	// 1000 ints as paths of 1 to 9 nodes, the shape of link_paths.
	var paths [][]byte
	for left := 1000; left > 0; {
		n := min(1+rng.Intn(9), left)
		paths = append(paths, array(n, pathInt))
		left -= n
	}
	intPaths := append(append([]byte{'['}, bytes.Join(paths, []byte{','})...), ']')
	floats := func(s *Scanner) (sum float64) {
		for s.Open('['); s.More(']'); {
			sum += s.Float64()
		}
		return sum
	}
	for _, bc := range []struct {
		name string
		in   []byte
		scan func(*Scanner) float64
	}{
		{"float17", array(1000, func() string {
			for {
				if lit := strconv.FormatFloat(1000+rng.Float64()*9000, 'f', -1, 64); len(lit) == 18 {
					return lit
				}
			}
		}), floats},
		{"path_ints", array(1000, pathInt), func(s *Scanner) (sum float64) {
			for s.Open('['); s.More(']'); {
				sum += float64(s.Int64())
			}
			return sum
		}},
		{"int_paths", intPaths, func(s *Scanner) float64 {
			ints := intsSink[:0]
			for s.Open('['); s.More(']'); {
				ints = s.AppendInts(ints)
			}
			intsSink = ints
			return float64(len(ints))
		}},
		{"fallback", array(1000, func() string {
			if rng.Intn(2) == 0 {
				return strconv.FormatFloat(rng.Float64()*1e-7, 'g', -1, 64)
			}
			return "1234567890." + strconv.FormatUint(1e9+uint64(rng.Int63n(9e9)), 10)
		}), floats},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var s Scanner
			var sum float64
			for i := 0; i < b.N; i++ {
				s.Reset(bc.in)
				sum += bc.scan(&s)
				if !s.End() {
					b.Fatal("declined")
				}
			}
			sink = sum
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*1000), "ns/num")
		})
	}
}

// blanks are the bytes JSON allows between tokens, all of which the
// scanner declines.
const blanks = " \t\r\n"

var intsSink []int

var sink float64

// TestMarkSince: Since returns exactly the bytes of the value scanned
// after Mark, and a value with whitespace between its tokens, or around
// it, is declined.
func TestMarkSince(t *testing.T) {
	keys := NewKeys("k")
	for _, tc := range []struct {
		in, span string
		ok       bool
	}{
		{`{"k":[1,2.5e3,"a b"]}`, `[1,2.5e3,"a b"]`, true},
		{`{"k":[]}`, `[]`, true},
		{"{\"k\" : \t[1,2.5e3,\"a b\"] \n}", ``, false},
		{`{"k":[1, 2]}`, ``, false},
		{`{"k":[ 1,2]}`, ``, false},
		{`{"k":[1,2 ]}`, ``, false},
		{"{\"k\":[1,\n2]}", ``, false},
		{`{"k":[1,,2]}`, ``, false},
	} {
		var s Scanner
		var f Fields
		s.Reset([]byte(tc.in))
		s.Open('{')
		s.More('}')
		s.Field(keys, &f)
		mark := s.Mark()
		for s.Open('['); s.More(']'); {
			if s.peek() == '"' {
				s.str()
			} else {
				s.Float64()
			}
		}
		if span := s.Since(mark); s.OK() != tc.ok || tc.ok && string(span) != tc.span {
			t.Errorf("%q: Since = %q, accepted %v; want %q, %v", tc.in, span, s.OK(), tc.span, tc.ok)
		}
	}
}
