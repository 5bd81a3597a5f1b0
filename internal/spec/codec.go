package spec

import (
	"strconv"

	"repro/internal/jsonx"
)

// This file is the hand-written codec for the two specs every admission
// carries, EnvSpec in and MappingSpec out (and both again inside the
// WAL's admit record). Each ScanJSON accepts a subset of what
// encoding/json accepts and each AppendJSON emits json.Marshal's exact
// bytes or declines; see package jsonx for the subset and DecodeStrict /
// AppendJSON for the fallback.

// ScanJSON decodes one EnvSpec into e, which must be the zero value:
// encoding/json merges into whatever the target already holds, and the
// fast path does not imitate that. It reports whether it accepted the
// input; when it did not, e is untouched.
func (e *EnvSpec) ScanJSON(s *jsonx.Scanner) bool {
	var v EnvSpec
	if e.Guests != nil || e.Links != nil {
		return false
	}
	var seen uint
	for s.Open('{'); s.More('}'); {
		switch string(s.Key()) {
		case "guests":
			s.Once(&seen, 1)
			v.Guests = []GuestSpec{}
			for s.Open('['); s.More(']'); {
				v.Guests = append(v.Guests, GuestSpec{})
				scanGuest(s, &v.Guests[len(v.Guests)-1])
			}
		case "links":
			s.Once(&seen, 2)
			v.Links = []VLinkSpec{}
			for s.Open('['); s.More(']'); {
				v.Links = append(v.Links, VLinkSpec{})
				scanVLink(s, &v.Links[len(v.Links)-1])
			}
		default:
			s.Fail()
		}
	}
	if !s.OK() {
		return false
	}
	*e = v
	return true
}

func scanGuest(s *jsonx.Scanner, g *GuestSpec) {
	var seen uint
	for s.Open('{'); s.More('}'); {
		switch string(s.Key()) {
		case "name":
			s.Once(&seen, 1)
			g.Name = s.String()
		case "proc_mips":
			s.Once(&seen, 2)
			g.Proc = s.Float64()
		case "mem_mb":
			s.Once(&seen, 4)
			g.Mem = s.Int64()
		case "stor_gb":
			s.Once(&seen, 8)
			g.Stor = s.Float64()
		default:
			s.Fail()
		}
	}
}

func scanVLink(s *jsonx.Scanner, l *VLinkSpec) {
	var seen uint
	for s.Open('{'); s.More('}'); {
		switch string(s.Key()) {
		case "from":
			s.Once(&seen, 1)
			l.From = s.Int()
		case "to":
			s.Once(&seen, 2)
			l.To = s.Int()
		case "bw_mbps":
			s.Once(&seen, 4)
			l.BW = s.Float64()
		case "lat_ms":
			s.Once(&seen, 8)
			l.Lat = s.Float64()
		default:
			s.Fail()
		}
	}
}

// ScanJSON decodes one MappingSpec into m under EnvSpec.ScanJSON's
// contract.
func (m *MappingSpec) ScanJSON(s *jsonx.Scanner) bool {
	var v MappingSpec
	if m.GuestHost != nil || m.LinkPaths != nil || m.LinkEdges != nil || m.Objective != 0 {
		return false
	}
	var seen uint
	for s.Open('{'); s.More('}'); {
		switch string(s.Key()) {
		case "guest_host":
			s.Once(&seen, 1)
			v.GuestHost = scanInts(s)
		case "link_paths":
			s.Once(&seen, 2)
			v.LinkPaths = scanIntLists(s)
		case "link_edges":
			s.Once(&seen, 4)
			v.LinkEdges = scanIntLists(s)
		case "objective":
			s.Once(&seen, 8)
			v.Objective = s.Float64()
		default:
			s.Fail()
		}
	}
	if !s.OK() {
		return false
	}
	*m = v
	return true
}

func scanInts(s *jsonx.Scanner) []int {
	out := []int{}
	for s.Open('['); s.More(']'); {
		out = append(out, s.Int())
	}
	return out
}

// scanIntLists decodes an array of int arrays into slices of one shared
// backing array, each capped at its length: a mapping carries two lists
// per virtual link, and recovery decodes one mapping per admission.
func scanIntLists(s *jsonx.Scanner) [][]int {
	arena, ends := []int{}, []int{}
	for s.Open('['); s.More(']'); {
		for s.Open('['); s.More(']'); {
			arena = append(arena, s.Int())
		}
		ends = append(ends, len(arena))
	}
	out, start := make([][]int, len(ends)), 0
	for i, end := range ends {
		out[i] = arena[start:end:end]
		start = end
	}
	return out
}

// AppendJSON implements jsonx.Appender.
func (e EnvSpec) AppendJSON(dst []byte) ([]byte, bool) {
	ok := true
	dst = append(dst, `{"guests":`...)
	if e.Guests == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range e.Guests {
			g := &e.Guests[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '{')
			if g.Name != "" {
				dst = append(dst, `"name":`...)
				dst = jsonx.AppendString(dst, g.Name, &ok)
				dst = append(dst, ',')
			}
			dst = append(dst, `"proc_mips":`...)
			dst = jsonx.AppendFloat(dst, g.Proc, &ok)
			dst = append(dst, `,"mem_mb":`...)
			dst = strconv.AppendInt(dst, g.Mem, 10)
			dst = append(dst, `,"stor_gb":`...)
			dst = jsonx.AppendFloat(dst, g.Stor, &ok)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"links":`...)
	if e.Links == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range e.Links {
			l := &e.Links[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"from":`...)
			dst = strconv.AppendInt(dst, int64(l.From), 10)
			dst = append(dst, `,"to":`...)
			dst = strconv.AppendInt(dst, int64(l.To), 10)
			dst = append(dst, `,"bw_mbps":`...)
			dst = jsonx.AppendFloat(dst, l.BW, &ok)
			dst = append(dst, `,"lat_ms":`...)
			dst = jsonx.AppendFloat(dst, l.Lat, &ok)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), ok
}

// AppendJSON implements jsonx.Appender.
func (m MappingSpec) AppendJSON(dst []byte) ([]byte, bool) {
	ok := true
	dst = append(dst, `{"guest_host":`...)
	dst = jsonx.AppendInts(dst, m.GuestHost)
	dst = append(dst, `,"link_paths":`...)
	dst = appendIntLists(dst, m.LinkPaths)
	if len(m.LinkEdges) > 0 {
		dst = append(dst, `,"link_edges":`...)
		dst = appendIntLists(dst, m.LinkEdges)
	}
	dst = append(dst, `,"objective":`...)
	dst = jsonx.AppendFloat(dst, m.Objective, &ok)
	return append(dst, '}'), ok
}

func appendIntLists(dst []byte, a [][]int) []byte {
	if a == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, l := range a {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonx.AppendInts(dst, l)
	}
	return append(dst, ']')
}
