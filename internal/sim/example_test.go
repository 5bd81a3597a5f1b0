package sim_test

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// ExampleEngine schedules a cascade of events.
func ExampleEngine() {
	eng := sim.NewEngine()
	eng.Schedule(1, func() {
		fmt.Println("first at", eng.Now())
		eng.Schedule(2, func() { fmt.Println("second at", eng.Now()) })
	})
	eng.Run()
	// Output:
	// first at 1
	// second at 3
}

// ExampleSimulatePS shows processor sharing: the short task drains first,
// then the long one speeds up.
func ExampleSimulatePS() {
	finish := sim.SimulatePS(10, []sim.Task{
		{Work: 10, Demand: 10},
		{Work: 5, Demand: 10},
	})
	fmt.Println(finish)
	// Output:
	// [1.5 1]
}

// ExampleSimulateFlows shares one 10 Mbps link max-min fairly.
func ExampleSimulateFlows() {
	g := graph.New(2)
	g.AddEdge(0, 1, 10, 0)
	p := graph.Path{Nodes: []graph.NodeID{0, 1}, Edges: []int{0}}
	done := sim.SimulateFlows(g, g.NominalBandwidth(), []sim.Flow{
		{Path: p, Data: 10},
		{Path: p.Clone(), Data: 20},
	})
	fmt.Println(done)
	// Output:
	// [2 3]
}
