package mapping

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/virtual"
)

// Effect is what committing a mapping does to a ledger, as plain
// numbers: each guest's host and demands, in guest order, and each
// virtual link's bandwidth and physical edges, in link order. It is the
// part of a logged admission that recovery must apply — and undo, when
// the log later releases the admission — and it needs neither the
// environment nor the mapping built to do so. Its slices are reused from
// one admission to the next.
type Effect struct {
	Guests []GuestEffect
	Links  []LinkEffect
	// Edges holds every link's physical edges, link after link: link l's
	// end at Links[l].End, where link l+1's begin.
	Edges []int
}

// GuestEffect is one guest's demands on the host it is placed on.
type GuestEffect struct {
	Host graph.NodeID
	Proc float64
	Mem  int64
	Stor float64
}

// LinkEffect is one virtual link's bandwidth, reserved on every edge of
// its path; End is where those edges end in Effect.Edges.
type LinkEffect struct {
	BW  float64
	End int
}

// Matches reports whether committing m has exactly the effect e: every
// guest on the same host with the same demands, every link over the same
// edges with the same bandwidth, floats compared by their bits.
func (e *Effect) Matches(m *Mapping) bool {
	v := m.Env
	if len(e.Guests) != len(m.GuestHost) || len(e.Links) != len(m.LinkPath) ||
		v.NumGuests() != len(m.GuestHost) || v.NumLinks() != len(m.LinkPath) {
		return false
	}
	bits := math.Float64bits
	for g, host := range m.GuestHost {
		d, want := v.Guest(virtual.GuestID(g)), &e.Guests[g]
		if host != want.Host || bits(d.Proc) != bits(want.Proc) || d.Mem != want.Mem || bits(d.Stor) != bits(want.Stor) {
			return false
		}
	}
	start := 0
	for l, p := range m.LinkPath {
		want := e.Links[l]
		if want.End < start || want.End > len(e.Edges) ||
			bits(v.Link(l).BW) != bits(want.BW) || !slices.Equal(p.Edges, e.Edges[start:want.End]) {
			return false
		}
		start = want.End
	}
	return start == len(e.Edges)
}
