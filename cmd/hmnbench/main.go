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
//	hmnbench -all -reps 5 -quick      # everything on the reduced matrix
//
// The retry budget of the random baselines defaults to 300 (the paper
// uses 100000); raise it with -maxtries to taste. Every run is
// reproducible from -seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	var (
		table        = flag.Int("table", 0, "render table 1, 2 or 3")
		figure       = flag.Int("figure", 0, "render figure 1")
		correlation  = flag.Bool("correlation", false, "report the objective/execution-time correlation (§5.2)")
		all          = flag.Bool("all", false, "render every table and figure")
		reps         = flag.Int("reps", 5, "repetitions per scenario (the paper uses 30)")
		hosts        = flag.Int("hosts", 40, "cluster size")
		seed         = flag.Int64("seed", 1, "sweep seed")
		maxTries     = flag.Int("maxtries", 300, "retry budget of the random baselines (paper: 100000)")
		quick        = flag.Bool("quick", false, "use the reduced scenario matrix")
		scale        = flag.Bool("scale", false, "use the hot-path scaling matrix (500/1000/2000 guests)")
		topoFlag     = flag.String("topology", "both", "torus, switched or both")
		heurFlag     = flag.String("heuristics", "HMN,R,RA,HS", "comma-separated heuristic subset")
		workers      = flag.Int("workers", 0, "worker-pool width for every experiment (0 = GOMAXPROCS; results are identical for any value)")
		csvPath      = flag.String("csv", "", "also write every run as CSV to this file")
		jsonPath     = flag.String("json", "", "also write the results matrix and mapping-time percentiles as JSON to this file ('-' = stdout)")
		gap          = flag.Bool("gap", false, "measure HMN's optimality gap against the exact solver on tiny instances; with -json its block joins the document")
		gapN         = flag.Int("gap-instances", 30, "instances for the -gap experiment")
		reservations = flag.Bool("reservations", false, "run the bandwidth-reservation ablation (reserved vs best-effort transfers)")
		churn        = flag.Bool("churn", false, "run the admission churn benchmark, bare vs a rebalancing round after every second operation; with -json its block joins the document")
		churnOps     = flag.Int("churn-ops", 200, "churn operations for the -churn benchmark")
		fedShards    = flag.Int("shards", 0, "run the federation aggregate-throughput benchmark: -hosts total hosts as one cluster vs partitioned across this many shards")
		fedOps       = flag.Int("fed-ops", 120, "admissions per federation run (needs -shards)")
		fedGateway   = flag.Float64("gateway-bw", 0, "inter-shard gateway budget in Mbps for the federation benchmark (0 = splits disabled)")
	)
	flag.Parse()

	if *fedShards > 0 {
		cfg := exp.FederationConfig{Hosts: *hosts, Shards: *fedShards, Ops: *fedOps,
			Seed: *seed, GatewayBW: *fedGateway}
		res := exp.RunFederation(cfg)
		if *jsonPath == "-" {
			// '-json -' promises pure JSON on stdout, same as the sweep
			// path; the human-readable table moves to stderr.
			fmt.Fprint(os.Stderr, res)
		} else {
			fmt.Print(res)
		}
		if *jsonPath != "" {
			doc := exp.JSONDocument{Hosts: *hosts, Seed: *seed, Federation: &res}
			if err := writeFedJSON(doc, *jsonPath); err != nil {
				fmt.Fprintf(os.Stderr, "hmnbench: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}
	if *fedGateway != 0 {
		fmt.Fprintln(os.Stderr, "hmnbench: -gateway-bw needs -shards")
		os.Exit(2)
	}

	if !*all && *table == 0 && *figure == 0 && !*correlation && !*gap && !*reservations && !*churn {
		*all = true
	}
	var churnRes *exp.ChurnResult
	if *churn {
		r := exp.RunChurn(exp.ChurnConfig{Hosts: *hosts, Ops: *churnOps, Seed: *seed})
		churnRes = &r
		if *jsonPath == "-" {
			fmt.Fprint(os.Stderr, r) // '-json -' promises pure JSON on stdout
		} else {
			fmt.Print(r)
		}
		if !*all && *table == 0 && *figure == 0 && !*correlation && !*gap && !*reservations {
			return
		}
	}
	if *reservations {
		fmt.Print(exp.RunReservations(exp.ReservationConfig{Seed: *seed, Workers: *workers}))
		if !*all && *table == 0 && *figure == 0 && !*correlation && !*gap {
			return
		}
	}
	var gapRes *exp.GapJSON
	if *gap {
		r := exp.RunGap(exp.GapConfig{Instances: *gapN, Seed: *seed, Workers: *workers})
		gapRes = r.JSON()
		if *jsonPath == "-" {
			fmt.Fprint(os.Stderr, r) // '-json -' promises pure JSON on stdout
		} else {
			fmt.Print(r)
		}
		if !*all && *table == 0 && *figure == 0 && !*correlation {
			return
		}
	}
	if *table == 1 {
		fmt.Print(exp.Table1(*hosts))
		return
	}

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
		fmt.Fprintf(os.Stderr, "hmnbench: unknown -topology %q\n", *topoFlag)
		os.Exit(2)
	}
	if *heurFlag != "" {
		cfg.Heuristics = nil
		for _, h := range strings.Split(*heurFlag, ",") {
			h = strings.TrimSpace(h)
			switch h {
			case "HMN", "R", "RA", "HS":
				cfg.Heuristics = append(cfg.Heuristics, h)
			default:
				fmt.Fprintf(os.Stderr, "hmnbench: unknown heuristic %q\n", h)
				os.Exit(2)
			}
		}
	}

	fmt.Fprintf(os.Stderr, "hmnbench: %d scenarios x %d reps x %d topologies x %d heuristics (seed %d, maxtries %d)\n",
		len(cfg.Scenarios), cfg.Reps, len(cfg.Topologies), len(cfg.Heuristics), cfg.Seed, cfg.MaxTries)
	start := time.Now()
	res := exp.RunSweep(cfg)
	res.Churn = churnRes // with -churn or -gap, the JSON document carries its block
	res.Gap = gapRes
	fmt.Fprintf(os.Stderr, "hmnbench: sweep finished in %.1fs (%d runs)\n",
		time.Since(start).Seconds(), len(res.Runs))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hmnbench: %v\n", err)
			os.Exit(1)
		}
		if err := res.WriteCSV(f); err != nil {
			fmt.Fprintf(os.Stderr, "hmnbench: writing CSV: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hmnbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hmnbench: wrote %s\n", *csvPath)
	}
	if *jsonPath != "" {
		if err := writeJSON(res, *jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "hmnbench: %v\n", err)
			os.Exit(1)
		}
		if *jsonPath == "-" {
			return
		}
		fmt.Fprintf(os.Stderr, "hmnbench: wrote %s\n", *jsonPath)
	}

	printed := false
	if *all || *table == 2 {
		fmt.Println(res.Table2())
		printed = true
	}
	if *all || *table == 3 {
		fmt.Println(res.Table3())
		printed = true
	}
	if *all || *figure == 1 {
		for _, topo := range cfg.Topologies {
			fmt.Println(res.Figure1Table(topo))
		}
		fmt.Println(res.MappingTimeTable())
		printed = true
	}
	if *all || *correlation {
		fmt.Printf("Objective/execution-time correlation (pooled over %d valid runs): r = %.3f\n",
			validRuns(res), res.Correlation())
		for class, r := range res.CorrelationByClass() {
			fmt.Printf("  within the %s class: r = %.3f\n", class, r)
		}
		byScenario := res.CorrelationByScenario()
		labels := make([]string, 0, len(byScenario))
		for l := range byScenario {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Printf("  within scenario %-14s r = %.3f\n", l+":", byScenario[l])
		}
		printed = true
	}
	if !printed {
		fmt.Fprintln(os.Stderr, "hmnbench: nothing selected (use -table, -figure, -correlation or -all)")
		os.Exit(2)
	}
}

// writeJSON renders the sweep as JSON to path, or to stdout for "-".
func writeJSON(res *exp.Results, path string) error {
	if path == "-" {
		return res.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing JSON: %w", err)
	}
	return f.Close()
}

// writeFedJSON renders a federation-only document to path ("-" =
// stdout) for the hmncompare gate.
func writeFedJSON(doc exp.JSONDocument, path string) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("writing JSON: %w", err)
	}
	if path != "-" {
		fmt.Fprintf(os.Stderr, "hmnbench: wrote %s\n", path)
	}
	return nil
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
