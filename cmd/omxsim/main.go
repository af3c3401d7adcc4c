// Command omxsim is the single entry point to the simulation: every
// experiment — the paper's tables and figures, the lifecycle walkthroughs,
// the fault-injection runs — is a registered scenario.
//
// Usage:
//
//	omxsim list [-markdown]         # registered scenarios (+ source, policy labels)
//	omxsim policies                 # registered pinning-policy backends
//	omxsim run <scenario|spec.yaml>... [-policy lbl] [-seed N] [-quick] [-shards N] [-json]
//	omxsim validate <spec.yaml>...  # strict-parse scenario spec files
//	omxsim sweep [-quick] [-shards N] [-json]  # run every registered scenario
//	omxsim bench [-quick] [-pr N] [-out FILE]  # simulator meta-benchmarks
//
// Exit status is non-zero when any scenario assertion fails, so CI can
// gate on `omxsim run`.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"omxsim/internal/bench"
	"omxsim/internal/core"
	"omxsim/internal/policy"
	"omxsim/internal/report"
	"omxsim/internal/scenario"
)

func usage() {
	fmt.Fprintf(os.Stderr, `omxsim — Open-MX decoupled-pinning simulator

Usage:
  omxsim list                list registered scenarios (source + policy labels)
  omxsim policies            list registered pinning-policy backends
  omxsim run <name|file>...  run scenarios by registry name or spec file
                             (arguments ending in .yaml/.yml load as specs)
  omxsim validate <file>...  strict-parse and compile spec files without
                             running them (file:line errors, exit 1 on failure)
  omxsim sweep               run every registered scenario
  omxsim bench               run the simulator meta-benchmark suite and
                             write BENCH_PR<N>.json (ns/op + metrics)

Flags for list:
  -markdown        emit the README scenario table (docs/scenario-authoring.md)

Flags for run/sweep:
  -policy string   restrict the case matrix to one label or backend name
  -seed int        simulation seed (default 1)
  -quick           reduced size schedules
  -shards int      run each cluster on N parallel engine shards (clamped to
                   its node count; results are shard-count invariant)
  -chaos-seed int  reseed the chaos fault schedule independently of -seed
                   (0 = derive from -seed; chaos-profile scenarios only)
  -json            emit machine-readable JSON instead of tables

Flags for bench:
  -quick           short measurement windows (CI profile)
  -pr int          PR number in the output filename (default: from CHANGES.md)
  -out string      output path (default BENCH_PR<pr>.json; "-" for stdout)
  -guard string    prior BENCH_PR<N>.json to gate against (fail on regression)
  -guard-slack f   allowed SimWallClock slowdown vs -guard (default 1.75)
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		list(os.Args[2:])
	case "policies":
		listPolicies()
	case "run":
		run(os.Args[2:])
	case "validate":
		validate(os.Args[2:])
	case "sweep":
		sweep(os.Args[2:])
	case "bench":
		benchCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "omxsim: unknown command %q\n\n", os.Args[1])
		usage()
	}
}

func list(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	markdown := fs.Bool("markdown", false, "emit the README scenario table (generated form)")
	fs.Parse(args)
	if *markdown {
		fmt.Print(scenario.MarkdownTable())
		return
	}
	scenarios := scenario.All()
	wid, swid := 0, 0
	for _, s := range scenarios {
		if len(s.Name) > wid {
			wid = len(s.Name)
		}
		if len(s.Source) > swid {
			swid = len(s.Source)
		}
	}
	for _, s := range scenarios {
		fmt.Printf("%-*s  %-*s  %s\n", wid, s.Name, swid, s.Source, s.Description)
		fmt.Printf("%-*s  %-*s  policies: %s\n", wid, "", swid, "", strings.Join(s.PolicyLabels(), ", "))
		if s.Chaos != nil {
			fmt.Printf("%-*s  %-*s  chaos: %s\n", wid, "", swid, "", s.Chaos.Summary())
		}
	}
}

// validate strict-parses and compiles each spec file without running or
// registering it, reporting every file's verdict before exiting.
func validate(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "omxsim validate: no spec files given")
		os.Exit(2)
	}
	failed := false
	for _, path := range args {
		s, err := scenario.ValidateSpecFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			failed = true
			continue
		}
		fmt.Printf("%s: OK (scenario %q, %d cases)\n", path, s.Name, len(s.Cases))
	}
	if failed {
		os.Exit(1)
	}
}

// isSpecPath reports whether a run argument names a spec file rather
// than a registry entry.
func isSpecPath(name string) bool {
	return strings.HasSuffix(name, ".yaml") || strings.HasSuffix(name, ".yml")
}

// listPolicies prints the pinning-policy backend registry — every name
// `-policy` accepts (as a backend name; case labels are per scenario) —
// and the cache eviction policies omx.Config.CacheEviction selects.
func listPolicies() {
	wid := 0
	for _, p := range policy.All() {
		if len(p.Name()) > wid {
			wid = len(p.Name())
		}
	}
	for _, p := range policy.All() {
		fmt.Printf("%-*s  %s\n", wid, p.Name(), p.Description())
	}
	fmt.Printf("\ncache eviction policies (omx.Config.CacheEviction): %s\n",
		strings.Join(core.EvictorNames(), ", "))
}

// runFlags parses the shared run/sweep flags. Scenario names and flags may
// be interleaved freely (`run -json pingpong -quick`): the standard flag
// package stops at the first positional argument, so parsing restarts
// after peeling each name, with the shared variables keeping earlier flag
// values.
func runFlags(name string, args []string) (scenario.Options, bool, []string) {
	opts := scenario.Options{Seed: 1}
	jsonOut := false
	var names []string
	for {
		fs := flag.NewFlagSet(name, flag.ExitOnError)
		fs.StringVar(&opts.Policy, "policy", opts.Policy, "restrict the case matrix to one label or pin-policy name")
		fs.Int64Var(&opts.Seed, "seed", opts.Seed, "simulation seed")
		fs.BoolVar(&opts.Quick, "quick", opts.Quick, "reduced size schedules")
		fs.IntVar(&opts.Shards, "shards", opts.Shards, "parallel engine shards per cluster (0 = 1)")
		fs.Int64Var(&opts.ChaosSeed, "chaos-seed", opts.ChaosSeed, "chaos fault-schedule seed (0 = derive from -seed)")
		fs.BoolVar(&jsonOut, "json", jsonOut, "emit JSON instead of tables")
		fs.Parse(args)
		rest := fs.Args()
		if len(rest) == 0 {
			return opts, jsonOut, names
		}
		names = append(names, rest[0])
		args = rest[1:]
	}
}

func run(args []string) {
	opts, jsonOut, names := runFlags("run", args)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "omxsim run: no scenario given; `omxsim list` shows the registry")
		os.Exit(2)
	}
	var results []*report.Result
	for _, n := range names {
		// A .yaml/.yml argument is a spec file: load and register it (a
		// name collision with a builtin is a hard error), then run it
		// through the same path as any registered scenario.
		if isSpecPath(n) {
			s, err := scenario.LoadAndRegisterSpecFile(n)
			if err != nil {
				fmt.Fprintf(os.Stderr, "omxsim: %v\n", err)
				os.Exit(1)
			}
			n = s.Name
		}
		res, err := scenario.RunByName(n, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "omxsim: %v\n", err)
			os.Exit(1)
		}
		results = append(results, res)
	}
	emit(results, jsonOut)
}

func sweep(args []string) {
	opts, jsonOut, rest := runFlags("sweep", args)
	if len(rest) > 0 {
		fmt.Fprintf(os.Stderr, "omxsim sweep: unexpected arguments %v\n", rest)
		os.Exit(2)
	}
	var results []*report.Result
	for _, s := range scenario.All() {
		res, err := s.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "omxsim: %v\n", err)
			os.Exit(1)
		}
		results = append(results, res)
	}
	emit(results, jsonOut)
}

// benchCmd runs the meta-benchmark suite and writes the JSON artifact CI
// uploads, printing a short human summary to stderr.
func benchCmd(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	quick := fs.Bool("quick", false, "short measurement windows (CI profile)")
	pr := fs.Int("pr", 0, "PR number used in the output filename (default: inferred from CHANGES.md)")
	out := fs.String("out", "", `output path (default BENCH_PR<pr>.json; "-" for stdout)`)
	guard := fs.String("guard", "", "prior BENCH_PR<N>.json to gate against: fail when SimWallClock regresses past -guard-slack")
	guardSlack := fs.Float64("guard-slack", 1.75, "allowed SimWallClock slowdown factor vs the -guard artifact")
	fs.Parse(args)
	if *pr == 0 {
		*pr = inferPRNumber()
	}

	// Load the guard artifact before measuring: the output path may be the
	// same file (guarding the checked-in BENCH_PR<N>.json of the current
	// PR), and the comparison must see the committed numbers, not ours.
	var prior bench.Report
	if *guard != "" {
		p, err := bench.LoadReport(*guard)
		if err != nil {
			fmt.Fprintf(os.Stderr, "omxsim bench: %v\n", err)
			os.Exit(1)
		}
		prior = p
	}

	rep := bench.Run(*pr, *quick)

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_PR%d.json", *pr)
	}
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "omxsim bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		fmt.Fprintf(os.Stderr, "omxsim bench: %v\n", err)
		os.Exit(1)
	}
	for _, r := range rep.Benchmarks {
		fmt.Fprintf(os.Stderr, "%-20s %12.0f ns/op  %8.0f allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, "  %s=%.1f", k, r.Metrics[k])
		}
		fmt.Fprintln(os.Stderr)
	}
	if rep.SpeedupVsBaseline > 0 {
		fmt.Fprintf(os.Stderr, "SimWallClock speedup vs %s baseline (%s): %.2fx\n",
			rep.Baseline.Commit, rep.Baseline.Name, rep.SpeedupVsBaseline)
	}
	if rep.ParallelSpeedup != nil {
		fmt.Fprintf(os.Stderr, "parallel_speedup: %.2fx (%d CPUs)\n", *rep.ParallelSpeedup, rep.NumCPU)
	} else {
		fmt.Fprintf(os.Stderr, "parallel_speedup: null (%d CPU: the shards cannot run in parallel)\n", rep.NumCPU)
	}
	if *guard != "" {
		if err := bench.Guard(rep, prior, *guardSlack); err != nil {
			fmt.Fprintf(os.Stderr, "omxsim bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench guard: gated benchmarks within %.2fx of %s\n", *guardSlack, *guard)
	}
}

// inferPRNumber reads CHANGES.md (one line per PR, each starting
// "- PR <n>:", with the in-flight PR's entry appended before it lands) and
// returns the highest recorded number. Returns 0 when nothing is readable,
// leaving the artifact named BENCH_PR0.json as an explicit signal.
func inferPRNumber() int {
	data, err := os.ReadFile("CHANGES.md")
	if err != nil {
		return 0
	}
	max := 0
	for _, line := range strings.Split(string(data), "\n") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "- PR %d:", &n); err == nil && n > max {
			max = n
		}
	}
	return max
}

func emit(results []*report.Result, jsonOut bool) {
	var err error
	if jsonOut {
		err = report.WriteJSON(os.Stdout, results...)
	} else {
		err = report.WriteText(os.Stdout, results...)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "omxsim: %v\n", err)
		os.Exit(1)
	}
	for _, r := range results {
		if r.Failed() {
			os.Exit(1)
		}
	}
}
