// Command hmnmap maps a virtual environment onto a physical cluster: the
// automated step of the emulation workflow (§1) that assigns every guest
// to a host and every virtual link to a physical path.
//
// Usage:
//
//	hmnmap -cluster cluster.json -env env.json -out mapping.json
//	hmnmap -cluster c.json -env e.json -heuristic RA -seed 7
//	hmnmap -cluster c.json -env e.json -vmm-mem 256 -vmm-stor 10
//	hmngen -env - -guests 50 | hmnmap -cluster c.json -env - -out -
//
// -cluster, -env and -out accept "-" for stdin/stdout so the tool
// composes in pipelines with hmngen and the hmnd tooling. At most one of
// -cluster/-env may read stdin; with -out - the mapping owns stdout and
// the status lines move to stderr, so stdout is pure JSON.
//
// The output mapping is validated against the formal constraints
// Eq. (1)-(9) before being written; the exit status is non-zero when no
// valid mapping is found.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
)

func main() {
	var (
		clusterPath = flag.String("cluster", "", "cluster spec (JSON), required")
		envPath     = flag.String("env", "", "virtual environment spec (JSON), required")
		outPath     = flag.String("out", "", "write the mapping to this file (JSON)")
		heuristic   = flag.String("heuristic", "HMN", "HMN, R, RA or HS")
		seed        = flag.Int64("seed", 1, "seed for the randomized heuristics")
		maxTries    = flag.Int("maxtries", baseline.DefaultMaxTries, "retry budget of the random baselines")
		vmmProc     = flag.Float64("vmm-proc", 0, "VMM CPU overhead per host (MIPS)")
		vmmMem      = flag.Int64("vmm-mem", 0, "VMM memory overhead per host (MB)")
		vmmStor     = flag.Float64("vmm-stor", 0, "VMM storage overhead per host (GB)")
		simulate    = flag.Bool("simulate", false, "also run the emulated experiment on the mapping")
	)
	flag.Parse()

	if err := checkUsage(*clusterPath, *envPath); err != nil {
		fmt.Fprintf(os.Stderr, "hmnmap: %v\n", err)
		os.Exit(2)
	}
	// A mapping on stdout owns it; status lines move to stderr.
	infoW := io.Writer(os.Stdout)
	if *outPath == "-" {
		infoW = os.Stderr
	}

	var cs spec.ClusterSpec
	if err := loadInput(*clusterPath, &cs); err != nil {
		fatal(err)
	}
	c, err := cs.ToCluster()
	if err != nil {
		fatal(err)
	}
	var es spec.EnvSpec
	if err := loadInput(*envPath, &es); err != nil {
		fatal(err)
	}
	env, err := es.ToEnv()
	if err != nil {
		fatal(err)
	}

	overhead := cluster.VMMOverhead{Proc: *vmmProc, Mem: *vmmMem, Stor: *vmmStor}
	mapper, err := newMapper(*heuristic, overhead, *seed, *maxTries)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmnmap: %v\n", err)
		os.Exit(2)
	}

	start := time.Now()
	m, err := mapper.Map(c, env)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmnmap: %s found no valid mapping: %v\n", mapper.Name(), err)
		os.Exit(1)
	}
	if err := m.Validate(overhead); err != nil {
		fmt.Fprintf(os.Stderr, "hmnmap: internal error — mapping failed validation: %v\n", err)
		os.Exit(1)
	}

	st := m.Summarize(overhead)
	fmt.Fprintf(infoW, "hmnmap: %s mapped %d guests and %d links in %.3fs\n",
		mapper.Name(), st.Guests, st.Links, elapsed.Seconds())
	fmt.Fprintf(infoW, "  objective (Eq. 10): %.2f\n", st.Objective)
	fmt.Fprintf(infoW, "  hosts used: %d of %d\n", st.UsedHosts, c.NumHosts())
	fmt.Fprintf(infoW, "  links: %d intra-host, %d routed (mean %.2f hops, max %d)\n",
		st.IntraHostLinks, st.InterHostLinks, st.MeanPathLen, st.MaxPathLen)

	if *simulate {
		res := sim.RunExperiment(m, sim.ExperimentConfig{Overhead: overhead})
		fmt.Fprintf(infoW, "  emulated experiment makespan: %.3fs (%d events)\n", res.Makespan, res.Events)
	}

	if *outPath != "" {
		if err := saveOutput(*outPath, spec.FromMapping(m, overhead)); err != nil {
			fatal(err)
		}
		if *outPath != "-" {
			fmt.Fprintf(infoW, "hmnmap: wrote %s\n", *outPath)
		}
	}
}

// checkUsage enforces the rules no single flag can: both inputs named,
// and at most one of them read from stdin.
func checkUsage(clusterPath, envPath string) error {
	if clusterPath == "" || envPath == "" {
		return errors.New("-cluster and -env are required")
	}
	if clusterPath == "-" && envPath == "-" {
		return errors.New("only one of -cluster/-env can read stdin")
	}
	return nil
}

// newMapper builds the mapper named by the -heuristic flag.
func newMapper(name string, overhead cluster.VMMOverhead, seed int64, maxTries int) (core.Mapper, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "HMN":
		return &core.HMN{Overhead: overhead}, nil
	case "R":
		return &baseline.Random{Overhead: overhead, Rand: rng, MaxTries: maxTries}, nil
	case "RA":
		return &baseline.Random{Overhead: overhead, Rand: rng, MaxTries: maxTries, UseAStar: true}, nil
	case "HS":
		return &baseline.HostingSearch{Overhead: overhead, Rand: rng, MaxTries: maxTries}, nil
	}
	return nil, fmt.Errorf("unknown -heuristic %q (want HMN, R, RA or HS)", name)
}

// saveOutput writes a spec to a file, or to stdout when path is "-";
// indented either way, unlike hmnd's one-line replies.
func saveOutput(path string, v interface{}) error {
	if path == "-" {
		return spec.WriteIndentedJSON(os.Stdout, v)
	}
	return spec.SaveJSON(path, v)
}

// loadInput reads a spec from a file, or from stdin when path is "-".
func loadInput(path string, out interface{}) error {
	if path == "-" {
		if err := spec.DecodeStrict(os.Stdin, out); err != nil {
			return fmt.Errorf("decoding stdin: %w", err)
		}
		return nil
	}
	return spec.LoadJSON(path, out)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hmnmap: %v\n", err)
	os.Exit(1)
}
