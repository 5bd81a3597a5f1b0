// Command hmnbench regenerates the paper's evaluation: Table 2 (objective
// function and failures), Table 3 (emulated experiment execution time),
// Figure 1 (HMN mapping time versus virtual links mapped) and the §5.2
// objective/execution-time correlation.
//
// Usage:
//
//	hmnbench -table 2                 # Table 2 on the full scenario matrix
//	hmnbench -table 3 -reps 30        # Table 3 with the paper's 30 reps
//	hmnbench -figure 1                # Figure 1 series (torus by default)
//	hmnbench -correlation             # pooled Pearson r
//	hmnbench -churn -churn-ops 500    # admission churn, bare vs rebalanced (deterministic)
//	hmnbench -gap -gap-instances 50   # optimality gap against the exact solver (deterministic)
//	hmnbench -reservations            # reserved vs best-effort transfers (deterministic)
//	hmnbench -federation              # one host pool as one cluster, four shards, four shards split (deterministic)
//	hmnbench -all -reps 5 -quick      # every table and figure on the reduced matrix
//
// With -json, one document carries every experiment the flags ran (the
// sweep's series and runs, and a block per other experiment); with
// -json - it is the only thing on stdout, and the text goes to stderr.
//
// The retry budget of the random baselines defaults to 300 (the paper
// uses 100000); raise it with -maxtries to taste. Every run is
// reproducible from -seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is hmnbench with its arguments and output streams; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hmnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table        = fs.Int("table", 0, "render table 1, 2 or 3")
		figure       = fs.Int("figure", 0, "render figure 1")
		correlation  = fs.Bool("correlation", false, "report the objective/execution-time correlation (§5.2)")
		all          = fs.Bool("all", false, "render every table and figure")
		reps         = fs.Int("reps", 5, "repetitions per scenario (the paper uses 30)")
		hosts        = fs.Int("hosts", 40, "cluster size")
		seed         = fs.Int64("seed", 1, "sweep seed")
		maxTries     = fs.Int("maxtries", 300, "retry budget of the random baselines (paper: 100000)")
		quick        = fs.Bool("quick", false, "use the reduced scenario matrix")
		scale        = fs.Bool("scale", false, "use the hot-path scaling matrix (500/1000/2000 guests)")
		topoFlag     = fs.String("topology", "both", "torus, switched or both")
		heurFlag     = fs.String("heuristics", "HMN,R,RA,HS", "comma-separated heuristic subset")
		workers      = fs.Int("workers", 0, "worker-pool width for every experiment (0 = GOMAXPROCS; results are identical for any value)")
		csvPath      = fs.String("csv", "", "also write every run as CSV to this file")
		jsonPath     = fs.String("json", "", "also write every experiment that ran as one JSON document to this file ('-' = stdout)")
		gap          = fs.Bool("gap", false, "measure HMN's optimality gap against the exact solver on tiny instances")
		gapN         = fs.Int("gap-instances", 30, "instances for the -gap experiment")
		reservations = fs.Bool("reservations", false, "run the bandwidth-reservation ablation (reserved vs best-effort transfers)")
		churn        = fs.Bool("churn", false, "run the admission churn benchmark, bare vs a rebalancing round after every second operation")
		churnOps     = fs.Int("churn-ops", 200, "churn operations for the -churn benchmark")
		federation   = fs.Bool("federation", false, "run the federation experiment: one 64-host pool as one cluster, as four shards, and as four shards with split admission")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...interface{}) int {
		fmt.Fprintf(stderr, "hmnbench: "+format+"\n", a...)
		return 2
	}
	if *table < 0 || *table > 3 || *figure < 0 || *figure > 1 {
		return usage("nothing selected (use -table 1, 2 or 3, -figure 1, -correlation or -all)")
	}
	if !*all && *table == 0 && *figure == 0 && !*correlation && !*gap && !*reservations && !*churn && !*federation {
		*all = true
	}
	sweep := *all || *table >= 2 || *figure == 1 || *correlation

	cfg := exp.DefaultConfig()
	cfg.Hosts = *hosts
	cfg.Reps = *reps
	cfg.Seed = *seed
	cfg.MaxTries = *maxTries
	cfg.Workers = *workers
	if *quick {
		cfg.Scenarios = exp.QuickScenarios()
	}
	if *scale {
		cfg.Scenarios = exp.ScaleScenarios()
	}
	switch strings.ToLower(*topoFlag) {
	case "torus":
		cfg.Topologies = []exp.Topology{exp.Torus}
	case "switched":
		cfg.Topologies = []exp.Topology{exp.Switched}
	case "both":
	default:
		return usage("unknown -topology %q", *topoFlag)
	}
	if *heurFlag != "" {
		cfg.Heuristics = nil
		for _, h := range strings.Split(*heurFlag, ",") {
			h = strings.TrimSpace(h)
			if !slices.Contains(exp.HeuristicNames, h) {
				return usage("unknown heuristic %q", h)
			}
			cfg.Heuristics = append(cfg.Heuristics, h)
		}
	}

	// '-json -' promises pure JSON on stdout: the text moves to stderr.
	out := stdout
	if *jsonPath == "-" {
		out = stderr
	}
	doc := exp.JSONDocument{Hosts: *hosts, Seed: *seed}
	if *federation {
		r := exp.RunFederation(*seed)
		fmt.Fprint(out, r)
		doc.Federation = &r
	}
	if *churn {
		r := exp.RunChurn(exp.ChurnConfig{Hosts: *hosts, Ops: *churnOps, Seed: *seed})
		fmt.Fprint(out, r)
		doc.Churn = &r
	}
	if *reservations {
		r := exp.RunReservations(exp.ReservationConfig{Seed: *seed, Workers: *workers})
		fmt.Fprint(out, r)
		doc.Reservations = &r
	}
	if *gap {
		r := exp.RunGap(exp.GapConfig{Instances: *gapN, Seed: *seed, Workers: *workers})
		fmt.Fprint(out, r)
		doc.Gap = r.JSON()
	}
	if *table == 1 {
		fmt.Fprint(out, exp.Table1(*hosts))
	}
	if sweep {
		fmt.Fprintf(stderr, "hmnbench: %d scenarios x %d reps x %d topologies x %d heuristics (seed %d, maxtries %d)\n",
			len(cfg.Scenarios), cfg.Reps, len(cfg.Topologies), len(cfg.Heuristics), cfg.Seed, cfg.MaxTries)
		start := time.Now()
		res := exp.RunSweep(cfg)
		fmt.Fprintf(stderr, "hmnbench: sweep finished in %.1fs (%d runs)\n",
			time.Since(start).Seconds(), len(res.Runs))
		if *csvPath != "" {
			if err := writeFile(*csvPath, res.WriteCSV); err != nil {
				fmt.Fprintf(stderr, "hmnbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "hmnbench: wrote %s\n", *csvPath)
		}
		sd := res.JSON()
		sd.Federation, sd.Churn, sd.Reservations, sd.Gap = doc.Federation, doc.Churn, doc.Reservations, doc.Gap
		doc = sd
		printSweep(out, res, *all, *table, *figure, *correlation)
	}

	switch *jsonPath {
	case "":
	case "-":
		if err := doc.Write(stdout); err != nil {
			fmt.Fprintf(stderr, "hmnbench: writing JSON: %v\n", err)
			return 1
		}
	default:
		if err := writeFile(*jsonPath, doc.Write); err != nil {
			fmt.Fprintf(stderr, "hmnbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "hmnbench: wrote %s\n", *jsonPath)
	}
	return 0
}

// printSweep renders the sweep's selected tables and figures.
func printSweep(out io.Writer, res *exp.Results, all bool, table, figure int, correlation bool) {
	if all || table == 2 {
		fmt.Fprintln(out, res.Table2())
	}
	if all || table == 3 {
		fmt.Fprintln(out, res.Table3())
	}
	if all || figure == 1 {
		for _, topo := range res.Config.Topologies {
			fmt.Fprintln(out, res.Figure1Table(topo))
		}
		fmt.Fprintln(out, res.MappingTimeTable())
	}
	if all || correlation {
		fmt.Fprintf(out, "Objective/execution-time correlation (pooled over %d valid runs): r = %.3f\n",
			validRuns(res), res.Correlation())
		byClass := res.CorrelationByClass()
		for _, class := range []exp.Class{exp.HighLevel, exp.LowLevel} {
			if r, ok := byClass[class]; ok {
				fmt.Fprintf(out, "  within the %s class: r = %.3f\n", class, r)
			}
		}
		byScenario := res.CorrelationByScenario()
		labels := make([]string, 0, len(byScenario))
		for l := range byScenario {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(out, "  within scenario %-14s r = %.3f\n", l+":", byScenario[l])
		}
	}
}

// writeFile creates path and writes it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func validRuns(res *exp.Results) int {
	n := 0
	for _, r := range res.Runs {
		if r.OK {
			n++
		}
	}
	return n
}
