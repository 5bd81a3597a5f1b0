// Package virtual models the virtual environment of the paper (§3.2): the
// distributed system to be emulated, described as a graph whose vertices
// are guests (virtual machines with CPU, memory and storage demands —
// the vproc/vmem/vstor functions) and whose edges are virtual links with
// bandwidth and latency requirements (vbw/vlat).
package virtual

import (
	"fmt"
)

// GuestID identifies a guest within an Env. Guests are dense integers in
// [0, NumGuests).
type GuestID int

// Guest is one virtual machine of the emulated system with its resource
// demands: Proc in MIPS, Mem in MB, Stor in GB.
type Guest struct {
	ID   GuestID
	Name string
	Proc float64
	Mem  int64
	Stor float64
}

// Link is one virtual network connection between two guests, demanding BW
// Mbps of bandwidth and tolerating at most Lat ms of end-to-end latency.
// ID is the dense index of the link within its environment.
type Link struct {
	ID       int
	From, To GuestID
	BW       float64
	Lat      float64
}

// Other returns the endpoint of l that is not g. It panics when g is not
// an endpoint, which indicates a programming error.
func (l Link) Other(g GuestID) GuestID {
	switch g {
	case l.From:
		return l.To
	case l.To:
		return l.From
	}
	panic(fmt.Sprintf("virtual: guest %d is not an endpoint of link %d (%d-%d)", g, l.ID, l.From, l.To))
}

// Env is a virtual environment: a set of guests plus the virtual links
// between them. Build one with NewEnv, AddGuest and AddLink, or all at
// once with Build. Envs are not safe for concurrent mutation but are
// safe for concurrent reads once built.
type Env struct {
	guests []Guest
	links  []Link
	adj    [][]int // guest -> indices into links
	// source is the serialized description this environment was built
	// from, when its builder kept one (SetSource); any mutation drops it.
	source []byte
}

// NewEnv returns an empty virtual environment.
func NewEnv() *Env { return &Env{} }

// Build returns the environment of the given guests and links, taking
// ownership of both slices and numbering them in order. It is NewEnv
// followed by an AddGuest per guest and an AddLink per link — the same
// panics on the same misuse, the same LinksOf order — with the adjacency
// lists counted first and laid out in one array.
func Build(guests []Guest, links []Link) *Env {
	e := &Env{guests: guests, links: links, adj: make([][]int, len(guests))}
	for i := range guests {
		g := &guests[i]
		checkDemands(g.Name, g.Proc, g.Mem, g.Stor)
		g.ID = GuestID(i)
	}
	// One array: a degree per guest, then every guest's list.
	degree := make([]int, len(guests)+2*len(links))
	for i := range links {
		l := &links[i]
		e.checkLink(l.From, l.To, l.BW, l.Lat)
		l.ID = i
		degree[l.From]++
		degree[l.To]++
	}
	// Each list is capped at its length: an AddLink after Build copies
	// the list it grows instead of writing into its neighbour's.
	lists := degree[len(guests):]
	for g, n := range degree[:len(guests)] {
		e.adj[g], lists = lists[:0:n], lists[n:]
	}
	for i := range links {
		l := &links[i]
		e.adj[l.From] = append(e.adj[l.From], i)
		e.adj[l.To] = append(e.adj[l.To], i)
	}
	return e
}

// SetSource records the serialized description e was built from, for
// Source. The caller vouches that src describes exactly this
// environment and never changes it afterwards.
func (e *Env) SetSource(src []byte) { e.source = src }

// Source returns what SetSource recorded, nil once AddGuest or AddLink
// has changed the environment since. The bytes are read-only.
func (e *Env) Source() []byte { return e.source }

// AddGuest appends a guest with the given demands and returns its ID.
func (e *Env) AddGuest(name string, proc float64, mem int64, stor float64) GuestID {
	checkDemands(name, proc, mem, stor)
	e.source = nil
	id := GuestID(len(e.guests))
	e.guests = append(e.guests, Guest{ID: id, Name: name, Proc: proc, Mem: mem, Stor: stor})
	e.adj = append(e.adj, nil)
	return id
}

// AddLink appends a virtual link between two distinct guests and returns
// its ID. Self-links are rejected: a guest communicating with itself needs
// no network resources in the model of §3.2.
func (e *Env) AddLink(from, to GuestID, bw, lat float64) int {
	e.checkLink(from, to, bw, lat)
	e.source = nil
	id := len(e.links)
	e.links = append(e.links, Link{ID: id, From: from, To: to, BW: bw, Lat: lat})
	e.adj[from] = append(e.adj[from], id)
	e.adj[to] = append(e.adj[to], id)
	return id
}

// checkDemands panics on a guest that demands less than nothing.
func checkDemands(name string, proc float64, mem int64, stor float64) {
	if proc < 0 || mem < 0 || stor < 0 {
		panic(fmt.Sprintf("virtual: guest %q has negative demand", name))
	}
}

// checkLink panics unless a link with these endpoints and requirements
// may join e.
func (e *Env) checkLink(from, to GuestID, bw, lat float64) {
	if from == to {
		panic(fmt.Sprintf("virtual: self-link on guest %d", from))
	}
	e.checkGuest(from)
	e.checkGuest(to)
	if bw < 0 {
		panic(fmt.Sprintf("virtual: negative bandwidth on link %d-%d", from, to))
	}
	if lat < 0 {
		panic(fmt.Sprintf("virtual: negative latency on link %d-%d", from, to))
	}
}

func (e *Env) checkGuest(g GuestID) {
	if g < 0 || int(g) >= len(e.guests) {
		panic(fmt.Sprintf("virtual: guest %d out of range [0,%d)", g, len(e.guests)))
	}
}

// NumGuests returns the number of guests.
func (e *Env) NumGuests() int { return len(e.guests) }

// NumLinks returns the number of virtual links.
func (e *Env) NumLinks() int { return len(e.links) }

// Guest returns the guest with the given ID.
func (e *Env) Guest(id GuestID) Guest { return e.guests[id] }

// Guests returns all guests in ID order. The slice is read-only: it is
// the environment's own, and Source vouches for its contents.
func (e *Env) Guests() []Guest { return e.guests }

// Link returns the link with the given ID.
func (e *Env) Link(id int) Link { return e.links[id] }

// Links returns all virtual links in ID order. The slice is read-only:
// it is the environment's own, and Source vouches for its contents.
func (e *Env) Links() []Link { return e.links }

// LinksOf returns the IDs of the links incident to guest g. The slice is
// owned by the environment and must not be modified.
func (e *Env) LinksOf(g GuestID) []int {
	e.checkGuest(g)
	return e.adj[g]
}

// Degree returns the number of virtual links incident to g.
func (e *Env) Degree(g GuestID) int {
	e.checkGuest(g)
	return len(e.adj[g])
}

// Connected reports whether every guest can reach every other guest over
// virtual links. Environments with at most one guest are connected. The
// paper's workload generator guarantees connected environments (§5.1);
// the mapper itself does not require it.
func (e *Env) Connected() bool {
	if len(e.guests) <= 1 {
		return true
	}
	seen := make([]bool, len(e.guests))
	stack := []GuestID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, lid := range e.adj[u] {
			v := e.links[lid].Other(u)
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == len(e.guests)
}

// Density returns the edge density of the environment: the number of
// links divided by the number of unordered guest pairs. Returns 0 for
// fewer than two guests.
func (e *Env) Density() float64 {
	m := len(e.guests)
	if m < 2 {
		return 0
	}
	return float64(len(e.links)) / (float64(m) * float64(m-1) / 2)
}

// TotalMem returns the summed memory demand of all guests in MB.
func (e *Env) TotalMem() int64 {
	var total int64
	for _, g := range e.guests {
		total += g.Mem
	}
	return total
}

// TotalProc returns the summed CPU demand of all guests in MIPS.
func (e *Env) TotalProc() float64 {
	total := 0.0
	for _, g := range e.guests {
		total += g.Proc
	}
	return total
}

// TotalStor returns the summed storage demand of all guests in GB.
func (e *Env) TotalStor() float64 {
	total := 0.0
	for _, g := range e.guests {
		total += g.Stor
	}
	return total
}
