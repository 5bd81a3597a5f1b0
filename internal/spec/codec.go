package spec

import (
	"bytes"
	"strconv"

	"repro/internal/jsonx"
)

// This file is the hand-written codec for the two specs every admission
// carries, EnvSpec in and MappingSpec out (and both again inside the
// WAL's admit record). Each ScanJSON accepts a subset of what
// encoding/json accepts — compact, keys in json.Marshal's order — and
// each AppendJSON emits json.Marshal's exact bytes or declines; see
// package jsonx for the subset and DecodeStrict / AppendJSON for the
// fallback.

// ScanJSON decodes one EnvSpec into e, which must be the zero value:
// encoding/json merges into whatever the target already holds, and the
// fast path does not imitate that. It reports whether it accepted the
// input; when it did not, e is untouched.
//
// An accepted value also keeps a private copy of its own compact bytes,
// which ToEnv hands to the environment and AppendJSON appends in place
// of a rendering: the admit record of a request logs the description the
// tester sent. The bytes decode, by this scanner or by encoding/json, to
// exactly e.
func (e *EnvSpec) ScanJSON(s *jsonx.Scanner) bool {
	if e.Guests != nil || e.Links != nil || e.src != nil {
		return false
	}
	if !e.ScanInPlace(s) {
		*e = EnvSpec{} // as it was: ScanReuse leaves garbage behind a decline
		return false
	}
	e.src = bytes.Clone(e.src)
	return true
}

// ScanInPlace is ScanReuse keeping the bytes it scanned, as ScanJSON
// does, but as a slice of the scanner's input rather than a copy: for an
// input that nothing writes again and that may live as long as the
// environments built from it (WAL recovery's snapshot file). The slice
// is capped at its length, so appending to it never reaches the input.
func (e *EnvSpec) ScanInPlace(s *jsonx.Scanner) bool {
	mark := s.Mark()
	if !e.ScanReuse(s) {
		return false
	}
	src := s.Since(mark)
	e.src, e.sum = src[:len(src):len(src)], e.fingerprint()
	return true
}

// ScanReuse is ScanJSON for a decoder that reads many environments
// through one target, one after the other (WAL recovery): whatever e
// holds is overwritten, its slices truncated and refilled in place, so
// the result is valid only until the next scan into e. When it reports
// false, e holds garbage.
func (e *EnvSpec) ScanReuse(s *jsonx.Scanner) bool {
	guests, links := e.Guests[:0], e.Links[:0]
	*e = EnvSpec{}
	var f jsonx.Fields
	for s.Open('{'); s.More('}'); {
		switch s.Field(envKeys, &f) {
		case 0: // guests
			if guests == nil {
				guests = make([]GuestSpec, 0, firstCap)
			}
			for s.Open('['); s.More(']'); {
				// The name the last scan into e left in this slot: a log
				// re-admitting one environment names its guests alike.
				n, last := len(guests), ""
				if n < cap(guests) {
					last = guests[:n+1][n].Name
				}
				guests = append(guests, GuestSpec{})
				scanGuest(s, &guests[n], last)
			}
			e.Guests = guests
		case 1: // links
			if links == nil {
				links = make([]VLinkSpec, 0, firstCap)
			}
			for s.Open('['); s.More(']'); {
				links = append(links, VLinkSpec{})
				scanVLink(s, &links[len(links)-1])
			}
			e.Links = links
		}
	}
	return s.OK()
}

// firstCap is the capacity a one-shot decode starts its guest and link
// lists at: appending from nothing reallocates four times on the way.
const firstCap = 16

// The keys of each decoded type, in its fields' (json.Marshal's) order;
// a decoder's cases are their indices.
var (
	envKeys     = jsonx.NewKeys("guests", "links")
	guestKeys   = jsonx.NewKeys("name", "proc_mips", "mem_mb", "stor_gb")
	vlinkKeys   = jsonx.NewKeys("from", "to", "bw_mbps", "lat_ms")
	mappingKeys = jsonx.NewKeys("guest_host", "link_paths", "link_edges", "objective")
	clusterKeys = jsonx.NewKeys("nodes", "hosts", "links")
	hostKeys    = jsonx.NewKeys("node", "name", "proc_mips", "mem_mb", "stor_gb")
	linkKeys    = jsonx.NewKeys("a", "b", "bw_mbps", "lat_ms")
)

// scanGuest decodes one guest into g, taking last for its name when the
// name is spelled the same.
func scanGuest(s *jsonx.Scanner, g *GuestSpec, last string) {
	var f jsonx.Fields
	for s.Open('{'); s.More('}'); {
		switch s.Field(guestKeys, &f) {
		case 0: // name
			g.Name = s.StringOf(last)
		case 1: // proc_mips
			g.Proc = s.Float64()
		case 2: // mem_mb
			g.Mem = s.Int64()
		case 3: // stor_gb
			g.Stor = s.Float64()
		}
	}
}

func scanVLink(s *jsonx.Scanner, l *VLinkSpec) {
	var f jsonx.Fields
	for s.Open('{'); s.More('}'); {
		switch s.Field(vlinkKeys, &f) {
		case 0: // from
			l.From = s.Int()
		case 1: // to
			l.To = s.Int()
		case 2: // bw_mbps
			l.BW = s.Float64()
		case 3: // lat_ms
			l.Lat = s.Float64()
		}
	}
}

// Scan decodes a WAL snapshot's ClusterSpec into c, the zero value, or fails s.
func (c *ClusterSpec) Scan(s *jsonx.Scanner) {
	var f jsonx.Fields
	for s.Open('{'); s.More('}'); {
		switch s.Field(clusterKeys, &f) {
		case 0: // nodes
			c.Nodes = s.Int()
		case 1: // hosts
			c.Hosts = jsonx.List(s, func() (h HostSpec) { scanHost(s, &h); return h })
		case 2: // links
			c.Links = jsonx.List(s, func() (l LinkSpec) { scanLink(s, &l); return l })
		}
	}
}

func scanHost(s *jsonx.Scanner, h *HostSpec) {
	var f jsonx.Fields
	for s.Open('{'); s.More('}'); {
		switch s.Field(hostKeys, &f) {
		case 0: // node
			h.Node = s.Int()
		case 1: // name
			h.Name = s.String()
		case 2: // proc_mips
			h.Proc = s.Float64()
		case 3: // mem_mb
			h.Mem = s.Int64()
		case 4: // stor_gb
			h.Stor = s.Float64()
		}
	}
}

func scanLink(s *jsonx.Scanner, l *LinkSpec) {
	var f jsonx.Fields
	for s.Open('{'); s.More('}'); {
		switch s.Field(linkKeys, &f) {
		case 0: // a
			l.A = s.Int()
		case 1: // b
			l.B = s.Int()
		case 2: // bw_mbps
			l.BW = s.Float64()
		case 3: // lat_ms
			l.Lat = s.Float64()
		}
	}
}

// ScanJSON decodes one MappingSpec into m under EnvSpec.ScanJSON's
// contract.
func (m *MappingSpec) ScanJSON(s *jsonx.Scanner) bool {
	if m.GuestHost != nil || m.LinkPaths != nil || m.LinkEdges != nil || m.Objective != 0 {
		return false
	}
	var v MappingSpec
	if !v.ScanReuse(s, new(PathArena)) {
		return false
	}
	*m = v
	return true
}

// PathArena is the backing store of the link_paths and link_edges of
// one decoded mapping: every path's ints share one array per list
// rather than owning a small slice each. A decoder that reads many
// mappings one after the other hands the same arena to every ScanReuse.
type PathArena struct {
	paths, edges, ends []int
}

// ScanReuse decodes one MappingSpec into m under EnvSpec.ScanReuse's
// contract, its two path lists backed by a.
func (m *MappingSpec) ScanReuse(s *jsonx.Scanner, a *PathArena) bool {
	hosts, paths, edges := m.GuestHost[:0], m.LinkPaths[:0], m.LinkEdges[:0]
	*m = MappingSpec{}
	var f jsonx.Fields
	for s.Open('{'); s.More('}'); {
		switch s.Field(mappingKeys, &f) {
		case 0: // guest_host
			if hosts == nil {
				hosts = []int{}
			}
			m.GuestHost = s.AppendInts(hosts)
		case 1: // link_paths
			m.LinkPaths = a.scanIntLists(s, &a.paths, paths)
		case 2: // link_edges
			m.LinkEdges = a.scanIntLists(s, &a.edges, edges)
		case 3: // objective
			m.Objective = s.Float64()
		}
	}
	return s.OK()
}

// scanIntLists decodes an array of int arrays into out, as slices of
// the one backing array *arena, each capped at its length: a mapping
// carries two lists per virtual link, and recovery decodes one mapping
// per admission.
func (a *PathArena) scanIntLists(s *jsonx.Scanner, arena *[]int, out [][]int) [][]int {
	ints, ends := (*arena)[:0], a.ends[:0]
	if ints == nil {
		ints = []int{} // an empty path is [], never null
	}
	for s.Open('['); s.More(']'); {
		ints = s.AppendInts(ints)
		ends = append(ends, len(ints))
	}
	*arena, a.ends = ints, ends
	if out == nil {
		out = make([][]int, 0, len(ends))
	}
	start := 0
	for _, end := range ends {
		out = append(out, ints[start:end:end])
		start = end
	}
	return out
}

// AppendJSON implements jsonx.Appender. A value still carrying the
// JSON it was decoded from appends that.
func (e EnvSpec) AppendJSON(dst []byte) ([]byte, bool) {
	if e.verbatim() {
		return append(dst, e.src...), true
	}
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
