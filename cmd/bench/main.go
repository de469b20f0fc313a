// Command bench regenerates the paper's evaluation tables and figures
// (Section 11) plus the physical engine's operator microbenchmarks. Run
// with no arguments for everything, or name experiments:
//
//	bench fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21 physical
//
// Flags scale the workloads; the defaults finish in a few minutes on one
// core. Output is the textual form of each figure's data series; the
// "physical" suite additionally writes machine-readable results (op, rows,
// ns/op, allocs/op) to -physout so the repo's perf trajectory is tracked in
// version control.
//
// Two subcommands manage that committed baseline as a regression gate:
//
//	bench check    rerun the physical suite and compare rows_per_sec against
//	               the committed BENCH_physical.json; exit 1 if any pipeline
//	               regressed by more than -tolerance (default 25%)
//	bench update   rerun the suite and rewrite the baseline in place — run it
//	               after deliberate perf-relevant changes and commit the diff
//	bench summary  no remeasurement: render an already-written results file
//	               (-baseline, e.g. the check run's -out) as the aligned
//	               suite table with its speedup footers
//
// The suite's "/fused" entries lower the same chain-shaped plans with
// Options.Fuse and are compared against the "/typed" operator trees they
// collapse; the fused-vs-typed footer lines in `update` and `summary`
// output are the throughput claim for the fused pipeline compiler.
//
// With -mem-budget (e.g. "32M", or "auto" for a quarter of the data), the
// physical run and both gate subcommands additionally measure the
// out-of-core spill workloads — sort, aggregate, and join at data ≫ budget
// through the memory-governed spilling engine. Their throughput is
// disk-bound as well as CPU-bound, so regenerate their baseline entries on
// an idle machine before trusting a regression verdict.
//
// CI runs `bench check -mem-budget 32M` on every PR.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/physbench"
	"repro/internal/physical"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && (args[0] == "check" || args[0] == "update") {
		if err := runGate(args[0], args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if len(args) > 0 && args[0] == "summary" {
		if err := runSummary(args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	sf := flag.Float64("sf", 0.05, "PDBench scale factor for fig11-13 (1.0 = 60k lineitems)")
	quick := flag.Bool("quick", false, "shrink all workloads for a fast smoke run")
	physRows := flag.Int("physrows", 1000000, "input rows for the physical operator suite")
	physOut := flag.String("physout", "BENCH_physical.json", "path for the physical suite's JSON results")
	exec := benchExecFlags(flag.CommandLine, "also run the out-of-core spill workloads at this budget, e.g. 32M (empty = skip them; 'auto' = a quarter of the data)")
	flag.Parse()

	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToLower(a)] = true
	}
	all := len(want) == 0
	run := func(id string) bool { return all || want[id] }

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	if run("fig10") {
		cfg := experiments.DefaultFig10()
		if *quick {
			cfg.Rows, cfg.MaxOps, cfg.QueriesPerOp = 20, 5, 3
		}
		rep, _ := experiments.Fig10(cfg)
		fmt.Println(rep)
	}

	var pdRows []experiments.PDBenchRow
	if run("fig11") || run("fig12") || run("fig13") {
		cfg := experiments.DefaultPDBench()
		cfg.SF = *sf
		if *quick {
			cfg.SF = 0.01
			cfg.Uncertainties = []float64{0.02, 0.30}
		}
		rep, rows, err := experiments.Fig11(cfg)
		if err != nil {
			fail(err)
		}
		pdRows = rows
		if run("fig11") {
			fmt.Println(rep)
		}
	}
	if run("fig12") {
		fmt.Println(experiments.Fig12(pdRows))
	}
	if run("fig13") {
		fmt.Println(experiments.Fig13(pdRows))
	}

	if run("fig14") {
		cfg := experiments.DefaultPDBench()
		sfs := []float64{0.01, 0.05, 0.2}
		if *quick {
			sfs = []float64{0.01, 0.02}
		}
		rep, _, err := experiments.Fig14(sfs, cfg)
		if err != nil {
			fail(err)
		}
		fmt.Println(rep)
	}

	if run("fig15") {
		cfg := experiments.DefaultFig15()
		if *quick {
			cfg.TrialsPerK, cfg.Points = 3, 4
		}
		fmt.Println(experiments.Fig15(cfg))
	}

	if run("fig16") {
		fmt.Println(experiments.Fig16())
	}

	if run("fig17") {
		rows := 3000
		if *quick {
			rows = 500
		}
		rep, _, err := experiments.Fig17(rows, 0.05, 9)
		if err != nil {
			fail(err)
		}
		fmt.Println(rep)
	}

	if run("fig18") {
		cfg := experiments.DefaultFig18()
		if *quick {
			cfg.Rows = 400
			cfg.Uncertainties = []float64{0, 0.3, 0.5}
		}
		rep, _, err := experiments.Fig18(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Println(rep)
	}

	if run("fig19") {
		cfg := experiments.DefaultFig19()
		if *quick {
			cfg.Rows = 200
			cfg.Alternatives = []int{2, 10}
		}
		rep, _, err := experiments.Fig19(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Println(rep)
	}

	if run("fig20") {
		trials := 5
		if *quick {
			trials = 2
		}
		fmt.Println(experiments.Fig20(trials, 3))
	}

	if run("fig21") {
		trials := 5
		if *quick {
			trials = 2
		}
		fmt.Println(experiments.Fig21(trials, 3))
	}

	if run("physical") {
		rows := *physRows
		if *quick {
			rows = 10000
		}
		results, err := physbench.Suite(rows, exec.DOP())
		if err != nil {
			fail(err)
		}
		if ooc, err := outOfCoreResults(exec.MemBudgetRaw(), rows); err != nil {
			fail(err)
		} else {
			results = append(results, ooc...)
		}
		if srvRes, err := measureServer(rows); err != nil {
			fail(err)
		} else {
			results = append(results, srvRes...)
		}
		fmt.Println("Physical operator suite (batch engine vs row-at-a-time reference)")
		fmt.Print(physbench.Format(results))
		if err := physbench.WriteJSON(*physOut, results); err != nil {
			fail(err)
		}
		fmt.Println("wrote", *physOut)
	}
}

// benchExecFlags registers the shared -dop / -mem-budget flags with the
// suite's usage semantics (per-entry DOP gating; "auto" budgets) on the
// given flag set.
func benchExecFlags(fs *flag.FlagSet, budgetUsage string) *cliutil.ExecFlags {
	return cliutil.ExecFlagSpec{
		DOPUsage:     "workers for the suite's parallel entries (0 = GOMAXPROCS; 1 skips them)",
		BudgetUsage:  budgetUsage,
		NoFuse:       true,
		NoAttrBounds: true,
	}.Register(fs)
}

// outOfCoreResults runs the spilling workloads when a -mem-budget was
// asked for: "" skips them, "auto" derives a quarter-of-data budget, any
// other value parses as a byte size (64M, 2G, plain bytes).
func outOfCoreResults(budgetFlag string, rows int) ([]physbench.Result, error) {
	if budgetFlag == "" {
		return nil, nil
	}
	var budget int64
	if budgetFlag != "auto" {
		var err error
		budget, err = physical.ParseByteSize(budgetFlag)
		if err != nil {
			return nil, fmt.Errorf("-mem-budget: %w", err)
		}
		if budget == 0 {
			return nil, nil
		}
	}
	return measureOOC(rows, budget)
}

// measure runs the physical suite; a seam so the gate's flag/IO/verdict
// paths are testable without ~20s of real measurement per invocation.
// measureOOC is the same seam for the out-of-core spill workloads, and
// measureServer for the wire-protocol round-trip pair.
var (
	measure       = physbench.Suite
	measureOOC    = physbench.OutOfCore
	measureServer = physbench.ServerRoundTrip
)

// runGate implements `bench check` and `bench update`: rerun the physical
// suite and either gate against, or refresh, the committed baseline. check
// returns an error (non-zero exit) when any op regressed beyond tolerance.
func runGate(mode string, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench "+mode, flag.ContinueOnError)
	physRows := fs.Int("physrows", 1000000, "input rows for the physical operator suite (must match the baseline's)")

	baseline := fs.String("baseline", "BENCH_physical.json", "committed baseline path")
	out := fs.String("out", "", "also write the fresh measurements to this path (check only)")
	tol := fs.Float64("tolerance", 0.25, "allowed rows_per_sec regression fraction before the gate fails")
	exec := benchExecFlags(fs, "also run the out-of-core spill workloads at this budget, e.g. 32M (empty = skip; 'auto' = a quarter of the data)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var base []physbench.Result
	if mode == "check" {
		// Load the baseline before spending minutes measuring.
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			return fmt.Errorf("reading baseline: %w (run `bench update` to create it)", err)
		}
		if base, err = physbench.ParseJSON(raw); err != nil {
			return fmt.Errorf("parsing baseline %s: %w", *baseline, err)
		}
	}

	results, err := measure(*physRows, exec.DOP())
	if err != nil {
		return err
	}
	if ooc, err := outOfCoreResults(exec.MemBudgetRaw(), *physRows); err != nil {
		return err
	} else {
		results = append(results, ooc...)
	}
	if srvRes, err := measureServer(*physRows); err != nil {
		return err
	} else {
		results = append(results, srvRes...)
	}
	if mode == "update" {
		if err := physbench.WriteJSON(*baseline, results); err != nil {
			return err
		}
		fmt.Fprint(stdout, physbench.Format(results))
		fmt.Fprintln(stdout, "updated", *baseline)
		return nil
	}
	if *out != "" {
		if err := physbench.WriteJSON(*out, results); err != nil {
			return err
		}
	}
	report, regressed, stats := physbench.Check(base, results, *tol)
	fmt.Fprint(stdout, report)
	if len(regressed) > 0 {
		return fmt.Errorf("benchmark regression gate failed:\n  %s",
			strings.Join(regressed, "\n  "))
	}
	if stats.AllSkipped() {
		// Every baseline entry was skipped (op renames, -physrows or -dop
		// drift): the gate compared nothing and a pass would be vacuous.
		return fmt.Errorf("benchmark regression gate compared nothing: all %d baseline entries skipped (rerun with the baseline's -physrows/-dop, or refresh it with `bench update`)",
			stats.Baseline)
	}
	fmt.Fprintf(stdout, "benchmark regression gate passed (tolerance %.0f%%, %d/%d entries compared)\n",
		*tol*100, stats.Compared, stats.Baseline)
	return nil
}

// runSummary implements `bench summary`: format a results file that an
// earlier run already wrote, without remeasuring anything. CI uses it to
// turn the check run's -out JSON into the human-readable fused-vs-typed
// artifact.
func runSummary(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench summary", flag.ContinueOnError)
	baseline := fs.String("baseline", "BENCH_physical.json", "results file to render")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile(*baseline)
	if err != nil {
		return fmt.Errorf("reading results: %w", err)
	}
	results, err := physbench.ParseJSON(raw)
	if err != nil {
		return fmt.Errorf("parsing results %s: %w", *baseline, err)
	}
	fmt.Fprint(stdout, physbench.Format(results))
	return nil
}
