package jsonx

import (
	"encoding/json"
	"math"
	"math/rand"
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
// to the conversions encoding/json applies for each target kind.
func TestScannerNumbers(t *testing.T) {
	for _, lit := range []string{"0", "-0", "7", "-12", "123456789012345678", "1234567890123456789", "9223372036854775807",
		"01", "-", "+1", "1.", ".5", "1.5", "1e3", "1E+3", "1e", "1e+", "-1.25e-3", "1e400", "-1e400", "1e-400",
		"0x10", "1_0", "Infinity", "NaN", "", " 5", "5 ", "0.0", "00", "-01", "1.0e0"} {
		var wantF float64
		errF := json.Unmarshal([]byte(lit), &wantF)
		var s Scanner
		s.Reset([]byte(lit))
		gotF := s.Float64()
		if s.End() && (errF != nil || math.Float64bits(gotF) != math.Float64bits(wantF)) {
			t.Errorf("Float64(%q) accepted %v; encoding/json: %v, %v", lit, gotF, wantF, errF)
		}
		if !s.End() && errF == nil && len(lit) < 30 {
			t.Errorf("Float64(%q) declined a plain literal encoding/json takes as %v", lit, wantF)
		}

		var wantI int64
		errI := json.Unmarshal([]byte(lit), &wantI)
		s.Reset([]byte(lit))
		gotI := s.Int64()
		if s.End() && (errI != nil || gotI != wantI) {
			t.Errorf("Int64(%q) accepted %d; encoding/json: %d, %v", lit, gotI, wantI, errI)
		}
		if !s.End() && errI == nil && len(lit) <= 18 {
			t.Errorf("Int64(%q) declined a plain literal encoding/json takes as %d", lit, wantI)
		}

		var wantU uint64
		errU := json.Unmarshal([]byte(lit), &wantU)
		s.Reset([]byte(lit))
		gotU := s.Uint64()
		if s.End() && (errU != nil || gotU != wantU) {
			t.Errorf("Uint64(%q) accepted %d; encoding/json: %d, %v", lit, gotU, wantU, errU)
		}
	}
}

// TestMarkSince: Since returns exactly the bytes of the value scanned
// after Mark, and calls it compact only when no whitespace was skipped
// inside it — blanks before the mark, after the value or inside a string
// do not count.
func TestMarkSince(t *testing.T) {
	for _, tc := range []struct {
		in, span string
		compact  bool
	}{
		{`{"k":[1,2.5e3,"a b"]}`, `[1,2.5e3,"a b"]`, true},
		{"{\"k\" : \t[1,2.5e3,\"a b\"] \n}", `[1,2.5e3,"a b"]`, true},
		{`{"k":[1, 2]}`, `[1, 2]`, false},
		{`{"k":[ 1,2]}`, `[ 1,2]`, false},
		{`{"k":[1,2 ]}`, `[1,2 ]`, false},
		{"{\"k\":[1,\n2]}", "[1,\n2]", false},
		{`{"k":[]}`, `[]`, true},
		{`{"k":[1,,2]}`, ``, false},
	} {
		var s Scanner
		s.Reset([]byte(tc.in))
		s.Open('{')
		s.More('}')
		s.Key()
		mark := s.Mark()
		for s.Open('['); s.More(']'); {
			if s.peek() == '"' {
				s.str()
			} else {
				s.Float64()
			}
		}
		span, compact := s.Since(mark)
		if compact != tc.compact || (s.OK() && string(span) != tc.span) {
			t.Errorf("%q: Since = %q, %v; want %q, %v", tc.in, span, compact, tc.span, tc.compact)
		}
	}
}
