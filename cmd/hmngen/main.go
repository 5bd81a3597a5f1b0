// Command hmngen generates physical-cluster and virtual-environment spec
// files (JSON) from the paper's Table 1 distributions, for use with
// cmd/hmnmap.
//
// Usage:
//
//	hmngen -cluster cluster.json -topology torus -hosts 40
//	hmngen -env env.json -class high -guests 100 -density 0.02
//	hmngen -cluster c.json -env e.json -seed 7   # both at once
//	hmngen -env - -guests 50 | hmnmap -cluster c.json -env -
//
// At most one of -cluster/-env may be "-" (stdout); status lines then
// move to stderr so the JSON stream stays pure.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	var (
		clusterPath = flag.String("cluster", "", "write a cluster spec to this file")
		envPath     = flag.String("env", "", "write a virtual-environment spec to this file")
		topoFlag    = flag.String("topology", "torus", "torus, switched, ring, line, star, mesh, tree or random")
		hosts       = flag.Int("hosts", 40, "number of hosts")
		ports       = flag.Int("ports", workload.SwitchPorts, "ports per switch (switched topology)")
		fanout      = flag.Int("fanout", 8, "children per switch (tree topology)")
		extra       = flag.Int("extra", 20, "extra links (random topology)")
		class       = flag.String("class", "high", "workload class: high or low")
		guests      = flag.Int("guests", 100, "number of guests")
		density     = flag.Float64("density", 0.02, "virtual graph density")
		seed        = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	if *clusterPath == "" && *envPath == "" {
		fmt.Fprintln(os.Stderr, "hmngen: nothing to do (use -cluster and/or -env)")
		os.Exit(2)
	}
	if *clusterPath == "-" && *envPath == "-" {
		fmt.Fprintln(os.Stderr, "hmngen: only one of -cluster/-env can write to stdout")
		os.Exit(2)
	}
	infoW := io.Writer(os.Stdout)
	if *clusterPath == "-" || *envPath == "-" {
		infoW = os.Stderr
	}
	rng := rand.New(rand.NewSource(*seed))

	if *clusterPath != "" {
		params := workload.PaperClusterParams()
		params.Hosts = *hosts
		specs := workload.GenerateHosts(params, rng)
		c, err := buildTopology(*topoFlag, specs, *ports, *fanout, *extra, rng)
		if err != nil {
			fatal(err)
		}
		if err := saveOutput(*clusterPath, spec.FromCluster(c)); err != nil {
			fatal(err)
		}
		fmt.Fprintf(infoW, "hmngen: wrote %s (%d hosts, %d nodes, %d links, %s topology)\n",
			*clusterPath, c.NumHosts(), c.Net().NumNodes(), c.Net().NumEdges(), *topoFlag)
	}

	if *envPath != "" {
		var params workload.VirtualParams
		switch strings.ToLower(*class) {
		case "high":
			params = workload.HighLevelParams(*guests, *density)
		case "low":
			params = workload.LowLevelParams(*guests, *density)
		default:
			fatal(fmt.Errorf("unknown -class %q (want high or low)", *class))
		}
		env := workload.GenerateEnv(params, rng)
		if err := saveOutput(*envPath, spec.FromEnv(env)); err != nil {
			fatal(err)
		}
		fmt.Fprintf(infoW, "hmngen: wrote %s (%d guests, %d links, %s-level workload)\n",
			*envPath, env.NumGuests(), env.NumLinks(), strings.ToLower(*class))
	}
}

func buildTopology(kind string, specs []topology.HostSpec, ports, fanout, extra int, rng *rand.Rand) (*cluster.Cluster, error) {
	bw, lat := workload.PhysLinkBW, workload.PhysLinkLat
	switch strings.ToLower(kind) {
	case "torus":
		rows, cols := squarest(len(specs))
		return topology.Torus2D(specs, rows, cols, bw, lat)
	case "switched":
		return topology.Switched(specs, ports, bw, lat)
	case "ring":
		return topology.Ring(specs, bw, lat)
	case "line":
		return topology.Line(specs, bw, lat)
	case "star":
		return topology.Star(specs, bw, lat)
	case "mesh":
		return topology.FullMesh(specs, bw, lat)
	case "tree":
		return topology.SwitchTree(specs, fanout, bw, lat)
	case "random":
		return topology.RandomConnected(specs, extra, bw, lat, rng)
	default:
		return nil, fmt.Errorf("unknown -topology %q", kind)
	}
}

// saveOutput writes a spec to a file, or to stdout when path is "-";
// indented either way, unlike hmnd's one-line replies.
func saveOutput(path string, v interface{}) error {
	if path == "-" {
		return spec.WriteIndentedJSON(os.Stdout, v)
	}
	return spec.SaveJSON(path, v)
}

func squarest(n int) (rows, cols int) {
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return n / best, best
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hmngen: %v\n", err)
	os.Exit(1)
}
