// Heterogeneous cluster: demonstrates why HMN has a Migration stage at
// all. On a cluster whose hosts differ 6x in CPU power, the Hosting
// stage's affinity-driven packing leaves the residual CPU badly skewed;
// the Migration stage then evens it out.
//
// The example maps one workload with the default HMN, on a ring cluster —
// one of the "arbitrary topologies" the related systems of §2 cannot
// handle — and prints the objective after each stage: MapWithStats
// reports the one Hosting left and the one Migration handed on.
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	rng := rand.New(rand.NewSource(11))

	// 12 hosts spanning 500-3000 MIPS — a lab of mixed generations.
	specs := make([]repro.HostSpec, 12)
	for i := range specs {
		specs[i] = repro.HostSpec{
			Name: fmt.Sprintf("lab-%02d", i),
			Proc: 500 + float64(i)*230,
			Mem:  2048 + int64(rng.Intn(2))*1024,
			Stor: 2000,
		}
	}
	cl, err := repro.Ring(specs, 1000, 5)
	if err != nil {
		log.Fatal(err)
	}

	// 60 mid-weight guests, fairly dense virtual graph with loose latency
	// budgets (ring paths are long).
	env := repro.GenerateEnv(repro.VirtualParams{
		Guests: 60, Density: 0.05,
		ProcMin: 50, ProcMax: 150,
		MemMin: 128, MemMax: 256,
		StorMin: 20, StorMax: 60,
		BWMin: 0.2, BWMax: 1.0,
		LatMin: 40, LatMax: 80,
	}, rng)
	fmt.Printf("ring of %d hosts (CPU %0.f-%.0f MIPS), %d guests, %d links\n\n",
		cl.NumHosts(), specs[0].Proc, specs[len(specs)-1].Proc, env.NumGuests(), env.NumLinks())

	m, st, err := repro.NewHMN().MapWithStats(cl, env)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Validate(repro.VMMOverhead{}); err != nil {
		log.Fatalf("HMN produced an invalid mapping: %v", err)
	}
	res := repro.RunExperiment(m, repro.ExperimentConfig{BaseSeconds: 2, TransferSeconds: 0.05})
	fmt.Printf("objective (Eq. 10) after Hosting:   %8.1f MIPS\n", st.Migration.ObjectiveBefore)
	fmt.Printf("objective (Eq. 10) after Migration: %8.1f MIPS (%d moves)\n", st.Migration.ObjectiveAfter, st.Migration.Moves)
	fmt.Printf("emulated experiment makespan:       %8.2f s\n", res.Makespan)

	fmt.Println("\nMigration trades a handful of reassignments for a visibly lower")
	fmt.Println("objective — stage 2's contribution in isolation (DESIGN.md §7).")
}
