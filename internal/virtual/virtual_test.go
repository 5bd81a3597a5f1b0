package virtual

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

func threeGuestEnv(t *testing.T) *Env {
	t.Helper()
	e := NewEnv()
	e.AddGuest("web", 100, 256, 10)
	e.AddGuest("db", 200, 512, 100)
	e.AddGuest("cache", 50, 128, 5)
	e.AddLink(0, 1, 1.0, 50)
	e.AddLink(1, 2, 0.5, 40)
	return e
}

func TestEnvBasics(t *testing.T) {
	e := threeGuestEnv(t)
	if e.NumGuests() != 3 || e.NumLinks() != 2 {
		t.Fatalf("shape wrong: %d guests %d links", e.NumGuests(), e.NumLinks())
	}
	g := e.Guest(1)
	if g.Name != "db" || g.Proc != 200 || g.Mem != 512 || g.Stor != 100 {
		t.Fatalf("Guest(1) = %+v", g)
	}
	l := e.Link(0)
	if l.From != 0 || l.To != 1 || l.BW != 1.0 || l.Lat != 50 {
		t.Fatalf("Link(0) = %+v", l)
	}
	if len(e.Guests()) != 3 || len(e.Links()) != 2 {
		t.Fatal("Guests/Links slices wrong")
	}
}

func TestLinkOther(t *testing.T) {
	l := Link{ID: 0, From: 2, To: 5}
	if l.Other(2) != 5 || l.Other(5) != 2 {
		t.Fatal("Other wrong")
	}
	mustPanic(t, "Other(non-endpoint)", func() { l.Other(1) })
}

func TestAddGuestPanics(t *testing.T) {
	e := NewEnv()
	mustPanic(t, "negative proc", func() { e.AddGuest("x", -1, 0, 0) })
	mustPanic(t, "negative mem", func() { e.AddGuest("x", 0, -1, 0) })
	mustPanic(t, "negative stor", func() { e.AddGuest("x", 0, 0, -1) })
}

func TestAddLinkPanics(t *testing.T) {
	e := NewEnv()
	a := e.AddGuest("a", 1, 1, 1)
	b := e.AddGuest("b", 1, 1, 1)
	mustPanic(t, "self-link", func() { e.AddLink(a, a, 1, 1) })
	mustPanic(t, "bad guest", func() { e.AddLink(a, 99, 1, 1) })
	mustPanic(t, "negative bw", func() { e.AddLink(a, b, -1, 1) })
	mustPanic(t, "negative lat", func() { e.AddLink(a, b, 1, -1) })
}

func TestLinksOfAndDegree(t *testing.T) {
	e := threeGuestEnv(t)
	if e.Degree(1) != 2 || e.Degree(0) != 1 || e.Degree(2) != 1 {
		t.Fatal("degrees wrong")
	}
	ls := e.LinksOf(1)
	if len(ls) != 2 || ls[0] != 0 || ls[1] != 1 {
		t.Fatalf("LinksOf(1) = %v", ls)
	}
}

func TestConnected(t *testing.T) {
	e := threeGuestEnv(t)
	if !e.Connected() {
		t.Fatal("chain env is connected")
	}
	e.AddGuest("orphan", 1, 1, 1)
	if e.Connected() {
		t.Fatal("orphan guest disconnects the env")
	}
	empty := NewEnv()
	if !empty.Connected() {
		t.Fatal("empty env is connected by convention")
	}
	single := NewEnv()
	single.AddGuest("solo", 1, 1, 1)
	if !single.Connected() {
		t.Fatal("single guest env is connected")
	}
}

func TestDensity(t *testing.T) {
	e := threeGuestEnv(t)
	// 2 links of 3 possible pairs.
	if got, want := e.Density(), 2.0/3.0; got != want {
		t.Fatalf("Density = %v, want %v", got, want)
	}
	if NewEnv().Density() != 0 {
		t.Fatal("empty env density must be 0")
	}
}

func TestTotals(t *testing.T) {
	e := threeGuestEnv(t)
	if e.TotalProc() != 350 {
		t.Fatalf("TotalProc = %v", e.TotalProc())
	}
	if e.TotalMem() != 896 {
		t.Fatalf("TotalMem = %v", e.TotalMem())
	}
	if e.TotalStor() != 115 {
		t.Fatalf("TotalStor = %v", e.TotalStor())
	}
}

// TestBuildEqualsIncremental: Build is NewEnv + AddGuest + AddLink —
// same IDs, same LinksOf order (Hosting walks it) — and an AddLink
// afterwards grows one guest's list without touching its neighbour's,
// though Build lays all lists out in one array.
func TestBuildEqualsIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 30
	inc := NewEnv()
	guests := make([]Guest, n)
	for i := range guests {
		guests[i] = Guest{Name: fmt.Sprint("g", i), Proc: rng.Float64(), Mem: rng.Int63n(99), Stor: rng.Float64()}
		inc.AddGuest(guests[i].Name, guests[i].Proc, guests[i].Mem, guests[i].Stor)
	}
	links := make([]Link, 80)
	for i := range links {
		from := GuestID(rng.Intn(n))
		to := (from + 1 + GuestID(rng.Intn(n-1))) % n
		links[i] = Link{From: from, To: to, BW: rng.Float64(), Lat: rng.Float64()}
		inc.AddLink(from, to, links[i].BW, links[i].Lat)
	}
	built := Build(guests, links)
	same := func() {
		t.Helper()
		if !reflect.DeepEqual(built.Guests(), inc.Guests()) || !reflect.DeepEqual(built.Links(), inc.Links()) {
			t.Fatalf("Build differs from AddGuest/AddLink:\n%v\n%v", built.Links(), inc.Links())
		}
		for g := GuestID(0); g < n; g++ {
			if got, want := built.LinksOf(g), inc.LinksOf(g); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("LinksOf(%d) = %v, want %v", g, got, want)
			}
		}
	}
	same()
	for g := GuestID(0); g+1 < n; g++ {
		built.AddLink(g, g+1, 1, 1)
		inc.AddLink(g, g+1, 1, 1)
	}
	same()

	mustPanic(t, "Build self-link", func() { Build(make([]Guest, 2), []Link{{From: 1, To: 1}}) })
	mustPanic(t, "Build endpoint out of range", func() { Build(make([]Guest, 2), []Link{{From: 0, To: 2}}) })
	mustPanic(t, "Build negative demand", func() { Build([]Guest{{Mem: -1}}, nil) })
	mustPanic(t, "Build negative bandwidth", func() { Build(make([]Guest, 2), []Link{{From: 0, To: 1, BW: -1}}) })
}

// TestMutationDropsSource: the bytes SetSource vouched for describe the
// environment as it was; AddGuest and AddLink each forget them.
func TestMutationDropsSource(t *testing.T) {
	for name, mutate := range map[string]func(*Env){
		"AddGuest": func(e *Env) { e.AddGuest("x", 1, 1, 1) },
		"AddLink":  func(e *Env) { e.AddLink(0, 2, 1, 1) },
	} {
		e := threeGuestEnv(t)
		if e.Source() != nil {
			t.Fatal("an environment built in code has a source")
		}
		e.SetSource([]byte(`{"guests":[]}`))
		if string(e.Source()) != `{"guests":[]}` {
			t.Fatalf("Source() = %q", e.Source())
		}
		mutate(e)
		if e.Source() != nil {
			t.Fatalf("%s kept the source of the environment it changed", name)
		}
	}
}
