// Multi-tenant testbed: the paper assumes one tester owns the whole
// cluster (§3.2); its §6 envisions a shared facility. This example runs a
// Session on a switched cluster: three testers deploy their environments
// one after another against the residual resources, the middle one tears
// down, and a fourth deployment reuses the freed capacity.
//
//	go run ./examples/multitenant
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	rng := rand.New(rand.NewSource(3))

	// 16 heterogeneous hosts on a cascade of 8-port switches.
	params := repro.PaperClusterParams()
	params.Hosts = 16
	hosts := repro.GenerateHosts(params, rng)
	cl, err := repro.SwitchedCluster(hosts, 8, 1000, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("switched cluster: %d hosts, %d switches, %d links\n\n",
		cl.NumHosts(), cl.Net().NumNodes()-cl.NumHosts(), cl.Net().NumEdges())

	sess, err := repro.NewSession(cl, repro.VMMOverhead{Proc: 50, Mem: 128, Stor: 10}, nil)
	if err != nil {
		log.Fatal(err)
	}

	tenant := func(name string, guests int) *repro.Mapping {
		env := repro.GenerateEnv(repro.HighLevelParams(guests, 0.05), rng)
		m, err := sess.Map(env)
		if err != nil {
			fmt.Printf("%-10s FAILED: %v\n", name, err)
			return nil
		}
		fmt.Printf("%-10s deployed %3d guests, %3d links  (objective now %.1f, %d tenants active)\n",
			name, env.NumGuests(), env.NumLinks(),
			repro.Objective(sess.ResidualProc()), sess.Active())
		return m
	}

	tenant("tester-A", 40)
	b := tenant("tester-B", 40)
	tenant("tester-C", 30)

	fmt.Println("\ntester-B finishes; releasing its environment...")
	if err := sess.Release(b); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("released: %d tenants active, objective %.1f\n\n",
		sess.Active(), repro.Objective(sess.ResidualProc()))

	tenant("tester-D", 50) // reuses B's freed capacity
}
