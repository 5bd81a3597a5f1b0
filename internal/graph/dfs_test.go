package graph

import "testing"

func TestAllSimplePathsSquare(t *testing.T) {
	// Square 0-1-2-3-0: two simple paths between opposite corners.
	g := New(4)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(1, 2, 1, 1)
	g.AddEdge(2, 3, 1, 1)
	g.AddEdge(3, 0, 1, 1)
	paths := AllSimplePaths(g, 0, 2, 0)
	if len(paths) != 2 {
		t.Fatalf("square has 2 simple paths between opposite corners, got %d", len(paths))
	}
	for _, p := range paths {
		if err := p.Validate(g); err != nil {
			t.Fatalf("invalid path: %v", err)
		}
	}
	limited := AllSimplePaths(g, 0, 2, 1)
	if len(limited) != 0 {
		t.Fatalf("no single-hop path exists between opposite corners, got %d", len(limited))
	}
}

func TestAllSimplePathsTrivial(t *testing.T) {
	g := New(1)
	paths := AllSimplePaths(g, 0, 0, 0)
	if len(paths) != 1 || paths[0].Len() != 0 {
		t.Fatal("origin==dest should yield exactly the trivial path")
	}
}
