// Command uafcorpus regenerates the paper's evaluation (§V): it builds
// the synthetic Chapel-1.11-style test suite, runs the analysis over all
// of it, and prints Table I plus the per-pattern breakdown and the §VI
// baseline comparison. With -oracle it also cross-validates the flagged
// programs dynamically.
//
// Usage:
//
//	uafcorpus [-seed N] [-tests N] [-oracle N] [-baselines] [-dump dir]
//	          [-jobs N] [-case-timeout D] [-retries N]
//
// Every Table I run (the base table and the -model-atomics and
// -count-atomics reruns) goes through the library's batch entry point,
// uafcheck.AnalyzeFilesContext, with one option set built from -jobs,
// -case-timeout and -retries: each generated case gets its own deadline
// and panic isolation, so one pathological program degrades only
// itself. The robustness summary after the base Table I accounts for
// every case (ok / degraded / timed out / crashed).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"uafcheck"
	"uafcheck/internal/analysis"
	"uafcheck/internal/corpus"
	"uafcheck/internal/eval"
)

func main() {
	var (
		seed         = flag.Int64("seed", 1711, "corpus generation seed")
		tests        = flag.Int("tests", 5127, "total test cases")
		oracle       = flag.Int("oracle", 0, "dynamic validation schedules per flagged case (0 = off)")
		baselines    = flag.Bool("baselines", false, "also run the §VI baseline comparison")
		pruning      = flag.Bool("pruning", false, "also report §III-A pruning-rule statistics")
		modelAtomics = flag.Bool("model-atomics", false, "enable the atomics extension (§VII future work) and rerun the table")
		countAtomics = flag.Bool("count-atomics", false, "enable the counting refinement of the atomics extension and rerun the table")
		dump         = flag.String("dump", "", "write the generated corpus to this directory")
		jobs         = flag.Int("jobs", 0, "parallel analysis workers (0 = GOMAXPROCS)")
		caseTimeout  = flag.Duration("case-timeout", 0, "per-case analysis deadline (0 = none); expired cases degrade to conservative warnings")
		retries      = flag.Int("retries", 0, "extra attempts for a timed-out case, each with a 4x smaller state budget")
	)
	flag.Parse()

	params := corpus.DefaultParams(*seed)
	if *tests != params.Tests {
		// Scale the population proportionally.
		scale := float64(*tests) / float64(params.Tests)
		params.Tests = *tests
		params.BeginTests = max(1, int(float64(params.BeginTests)*scale))
		params.UnsafeTests = max(1, int(float64(params.UnsafeTests)*scale))
		params.TrueSites = max(1, int(float64(params.TrueSites)*scale))
		params.AtomicFPTests = max(1, int(float64(params.AtomicFPTests)*scale))
		params.FalseSites = max(1, int(float64(params.FalseSites)*scale))
	}

	start := time.Now()
	cases := corpus.Generate(params)
	genTime := time.Since(start)

	if *dump != "" {
		if err := os.MkdirAll(*dump, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, c := range cases {
			path := filepath.Join(*dump, c.Name+".chpl")
			if err := os.WriteFile(path, []byte(c.Source), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Printf("wrote %d test programs to %s\n", len(cases), *dump)
	}

	// -jobs, -case-timeout and -retries apply to every Table I run.
	ctx := context.Background()
	opts := []uafcheck.Option{
		uafcheck.WithWorkers(*jobs),
		uafcheck.WithDeadline(*caseTimeout),
		uafcheck.WithRetries(*retries),
	}
	start = time.Now()
	table, det, robust := eval.RunTableI(ctx, cases, opts...)
	breakdown := det.FormatPatternBreakdown()
	anaTime := time.Since(start)

	fmt.Printf("Table I — use-after-free check over the synthetic suite (seed %d)\n", *seed)
	fmt.Print(table.Format())
	fmt.Printf("\nPaper reference: 5127 / 218 / 38 / 437 / 63 / 14.4%%\n")
	fmt.Printf("generation %v, analysis %v\n\n", genTime.Round(time.Millisecond), anaTime.Round(time.Millisecond))
	fmt.Printf("Robustness: %d cases — %d ok, %d degraded, %d timed out, %d crashed, %d errors (%d retries)\n\n",
		robust.Files, robust.OK, robust.Degraded, robust.TimedOut, robust.Crashed, robust.Errors, robust.Retries)
	fmt.Println("Per-pattern breakdown:")
	fmt.Print(breakdown)

	fmt.Println("\nAggregate telemetry (per-pattern timing and state counts):")
	fmt.Print(det.FormatTelemetry())

	if *modelAtomics {
		start = time.Now()
		extTable, extDet, _ := eval.RunTableI(ctx, cases, append(opts, uafcheck.WithAtomicsModel(true))...)
		fmt.Printf("\nTable I with the atomics extension enabled (%v):\n",
			time.Since(start).Round(time.Millisecond))
		fmt.Print(extTable.Format())
		fmt.Println("\nPer-pattern breakdown (extension):")
		fmt.Print(extDet.FormatPatternBreakdown())
		fmt.Println("\nHandshake-style atomic synchronization is now proven safe;")
		fmt.Println("counting protocols (waitFor(n) with n fills) stay conservatively")
		fmt.Println("flagged because the full/empty abstraction is value-blind (§IV-A).")
	}

	if *countAtomics {
		start = time.Now()
		cntTable, cntDet, _ := eval.RunTableI(ctx, cases, append(opts, uafcheck.WithAtomicsCounting(true))...)
		fmt.Printf("\nTable I with the counting refinement enabled (%v):\n",
			time.Since(start).Round(time.Millisecond))
		fmt.Print(cntTable.Format())
		fmt.Println("\nPer-pattern breakdown (counting refinement):")
		fmt.Print(cntDet.FormatPatternBreakdown())
	}

	if *baselines {
		fmt.Println("\nBaseline comparison (§VI):")
		fmt.Print(eval.RunBaselines(cases, analysis.DefaultOptions()).Format())
	}

	if *pruning {
		start = time.Now()
		prep := eval.RunPruningStats(cases, analysis.DefaultOptions())
		fmt.Printf("\nPruning rules A-D over the begin cases (%v):\n",
			time.Since(start).Round(time.Millisecond))
		fmt.Print(prep.Format())
	}

	if *oracle > 0 {
		start = time.Now()
		rep := eval.ValidateWithOracle(ctx, cases, 0, *oracle, *seed)
		fmt.Printf("\nDynamic oracle (%d schedules/case, %v):\n", *oracle, time.Since(start).Round(time.Millisecond))
		fmt.Printf("  cases validated:        %d\n", rep.CasesValidated)
		fmt.Printf("  true sites confirmed:   %d/%d\n", rep.ConfirmedTrue, rep.TotalTrue)
		fmt.Printf("  atomic-case false alarms: %d\n", len(rep.FalseAlarms))
	}
}
