// Command uafcheck runs the use-after-free analysis over MiniChapel
// source files, printing compiler-style warnings — the reproduction of
// the paper's modified Chapel compiler pass.
//
// Usage:
//
//	uafcheck [flags] file.chpl [file2.chpl ...]
//
// Flags:
//
//	-ccfg           also print the Concurrent Control Flow Graph
//	-dot            print the CCFG in Graphviz dot syntax
//	-trace          also print the Parallel Program State table
//	-stats          print per-file analysis statistics (from Metrics)
//	-metrics        print phase timings, counters and gauges
//	-explain        print each warning's provenance chain
//	-trace-out=F    append the telemetry trace to F as JSON lines,
//	                including each file's hierarchical span tree
//	                (trace_span lines: file -> phases -> PPS waves)
//	-prom-out=F     write aggregated metrics to F in Prometheus format
//	-format=F       output format: text (default), json (one canonical
//	                result line per file — byte-identical to a uafserve
//	                response for the same input and options), or sarif
//	                (SARIF 2.1.0 for code-scanning consumers)
//	-module         analyze all inputs together as one module: cross-file
//	                calls resolve against every file, callee summaries
//	                compose at call boundaries, and escaping tasks are
//	                attributed to their callers (docs/INTERPROCEDURAL.md)
//	-no-prune       disable CCFG pruning rules A-D
//	-oracle N       validate warnings dynamically with N random schedules
//	-seed S         oracle schedule seed
//	-timeout D      per-file analysis deadline (degrades, never truncates);
//	                bounds each batch attempt, the -module analysis, each
//	                -fix repair and each -watch analysis alike (-watch
//	                defaults it to 30s)
//	-deadline D     wall-clock bound for the whole run
//	-jobs N         parallel file workers for multi-file runs (0 = GOMAXPROCS)
//	-par N          parallel PPS exploration workers inside each analysis
//	                (0 = batch default of 1; total concurrency ≈ jobs × par)
//	-retries N      retry a timed-out file N times with shrinking budgets
//	-cache-dir D    persist a content-addressed report cache under D;
//	                unchanged files on unchanged options are served
//	                from the cache without re-analysis
//	-cache-size N   in-memory cache entries (0 = default 1024)
//	-watch          stay resident: poll the files (or whole directory
//	                trees, rescanned every poll), re-analyze changed
//	                ones incrementally (only edited procedures are
//	                recomputed), and print warning diffs (+/-) instead
//	                of full reports. An analysis still running past
//	                -timeout plus a grace of max(-timeout, 30s) is
//	                abandoned and retried on the next poll, serving
//	                last-known-good warnings meanwhile.
//	-interval D     -watch poll interval (default 500ms)
//
// Exit codes:
//
//	0  clean — every file analyzed completely, no warnings
//	1  warnings — at least one exact (non-degraded) warning
//	2  degraded — some analysis was incomplete (budget, deadline,
//	   cancellation or a recovered crash); warnings are conservative
//	3  errors — unreadable inputs, frontend (parse/resolve) failures,
//	   or analyses abandoned as hung past -timeout plus a grace period
package main

import (
	"context"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"uafcheck"
	"uafcheck/internal/wire"
)

func main() {
	var (
		showCCFG  = flag.Bool("ccfg", false, "print the CCFG as text")
		showDot   = flag.Bool("dot", false, "print the CCFG as Graphviz dot")
		trace     = flag.Bool("trace", false, "print the PPS exploration table")
		stats     = flag.Bool("stats", false, "print per-file statistics (sourced from the metrics snapshot)")
		metrics   = flag.Bool("metrics", false, "print phase timings, counters and gauges")
		explain   = flag.Bool("explain", false, "print each warning's provenance (CCFG node, sink PPS, transition chain)")
		traceOut  = flag.String("trace-out", "", "append the telemetry trace to this file as JSON lines")
		promOut   = flag.String("prom-out", "", "write aggregated metrics to this file in Prometheus text format")
		module    = flag.Bool("module", false, "analyze all inputs together as one module (cross-file interprocedural analysis)")
		noPrune   = flag.Bool("no-prune", false, "disable pruning rules A-D")
		atomics   = flag.Bool("model-atomics", false, "model atomic fills/waits (§VII extension)")
		count     = flag.Bool("count-atomics", false, "counting refinement of the atomics extension")
		fix       = flag.Bool("fix", false, "synthesize and verify synchronization fixes; print verified unified diffs (with -format sarif: embed them as SARIF fixes; with -format json: append repair NDJSON lines)")
		execProc  = flag.String("exec", "", "execute the named proc once under a random schedule and print its event trace")
		oracle    = flag.Int("oracle", 0, "validate warnings with N random schedules (0 = off)")
		seed      = flag.Int64("seed", 1, "oracle schedule seed")
		timeout   = flag.Duration("timeout", 0, "per-file analysis deadline (0 = none; 30s with -watch), honoured by batch, -module, -fix and -watch runs; on expiry the file degrades to conservative warnings")
		deadline  = flag.Duration("deadline", 0, "wall-clock bound for the whole run (0 = none)")
		jobs      = flag.Int("jobs", 0, "parallel file workers (0 = GOMAXPROCS)")
		par       = flag.Int("par", 0, "parallel PPS exploration workers per analysis (0 = 1 in batch runs; total ≈ jobs × par)")
		retries   = flag.Int("retries", 0, "extra attempts for a timed-out file, each with a 4x smaller state budget")
		cacheDir  = flag.String("cache-dir", "", "directory for the persistent content-addressed report cache (empty = no cache)")
		cacheSize = flag.Int("cache-size", 0, "in-memory report cache entries (0 = default)")
		format    = flag.String("format", "text", "output format: text, json (canonical result lines) or sarif")
		watch     = flag.Bool("watch", false, "poll the files or trees and print incremental warning diffs on change")
		interval  = flag.Duration("interval", 500*time.Millisecond, "-watch poll interval")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: uafcheck [flags] file.chpl ...")
		flag.PrintDefaults()
		os.Exit(3)
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "uafcheck: unknown -format %q (want text, json or sarif)\n", *format)
		os.Exit(3)
	}

	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uafcheck: %v\n", err)
			os.Exit(3)
		}
		traceFile = f
		defer f.Close()
	}

	var paths []string
	for _, arg := range flag.Args() {
		st, err := os.Stat(arg)
		if err == nil && st.IsDir() {
			// Analyze every .chpl file under the directory.
			filepath.WalkDir(arg, func(p string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() && strings.HasSuffix(p, ".chpl") {
					paths = append(paths, p)
				}
				return nil
			})
			continue
		}
		paths = append(paths, arg)
	}
	// Deterministic multi-file output: directory walks and shell globs
	// may deliver paths in any order.
	sort.Strings(paths)

	ioErrors := false
	var files []uafcheck.FileInput
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uafcheck: %v\n", err)
			ioErrors = true
			continue
		}
		files = append(files, uafcheck.FileInput{Name: path, Src: string(data)})
	}

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	if *watch {
		// Resident mode: a supervised watch service over the raw args —
		// directory roots stay directories so the tree is rescanned
		// every poll (created files join, deleted files drop). One
		// analyzer keeps the per-procedure memo store for the whole
		// session. -timeout is the watchdog's clock, not a WithDeadline
		// beside it. Runs until killed (or the -deadline expires).
		opts := []uafcheck.Option{
			uafcheck.WithPrune(!*noPrune),
			uafcheck.WithAtomicsModel(*atomics),
			uafcheck.WithAtomicsCounting(*count),
			uafcheck.WithParallelism(*par),
		}
		runWatch(ctx, os.Stdout, uafcheck.NewAnalyzer(), opts, flag.Args(), *interval, *timeout, *metrics)
		os.Exit(0)
	}

	// All file sets — including a single file — go through the batch
	// driver: per-file deadlines, retry-with-smaller-budget and panic
	// isolation apply uniformly, and results come back index-aligned so
	// output order matches the sorted path list.
	apiOpts := []uafcheck.Option{
		uafcheck.WithPrune(!*noPrune),
		uafcheck.WithTrace(*trace),
		uafcheck.WithAtomicsModel(*atomics),
		uafcheck.WithAtomicsCounting(*count),
		uafcheck.WithParallelism(*par),
		uafcheck.WithWorkers(*jobs),
		uafcheck.WithDeadline(*timeout),
		uafcheck.WithRetries(*retries),
		// -trace-out implies span recording: each file's JSONL gets its
		// full span tree (file -> phases -> per-proc -> PPS waves).
		uafcheck.WithTracing(*traceOut != ""),
	}
	if *cacheDir != "" {
		apiOpts = append(apiOpts, uafcheck.WithCache(uafcheck.NewCache(uafcheck.CacheConfig{
			MaxEntries: *cacheSize,
			Dir:        *cacheDir,
		})))
	}

	if *module {
		runModule(ctx, files, apiOpts, *format, *metrics, *explain, ioErrors)
		// runModule exits.
	}

	batchRep := uafcheck.AnalyzeFilesContext(ctx, files, apiOpts...)

	// -fix: run the repair engine over every file whose analysis found
	// warnings on clean (non-degraded) evidence. Degraded reports are
	// refused by Repair with the typed sentinel — conservative warnings
	// must never drive a patch — and the refusal is reported, not
	// silently skipped.
	var repairs map[string]wire.RepairedFile
	if *fix {
		repairs = make(map[string]wire.RepairedFile)
		repairOpts := []uafcheck.Option{
			uafcheck.WithPrune(!*noPrune),
			uafcheck.WithAtomicsModel(*atomics),
			uafcheck.WithAtomicsCounting(*count),
			uafcheck.WithParallelism(*par),
			uafcheck.WithDeadline(*timeout),
		}
		for i, fr := range batchRep.Files {
			if fr.Err != nil || fr.Report == nil || len(fr.Report.Warnings) == 0 {
				continue
			}
			rr, err := uafcheck.Repair(ctx, files[i].Name, files[i].Src, repairOpts...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "uafcheck: repair %s: %v\n", files[i].Name, err)
				continue
			}
			repairs[files[i].Name] = wire.RepairedFile{Src: files[i].Src, Report: rr}
		}
	}

	if *format != "text" {
		// Machine-readable formats own stdout entirely: the canonical
		// wire encoding shared with the uafserve daemon, so piping a
		// file through the CLI and POSTing it to the server produce
		// identical bytes. Display flags (-ccfg, -stats, ...) are
		// text-format concerns and are ignored here.
		results := make([]wire.Result, len(batchRep.Files))
		for i, fr := range batchRep.Files {
			results[i] = wire.NewResult(files[i].Name, fr.Report, fr.Err, *metrics)
		}
		if err := emitFormatted(os.Stdout, *format, results, repairs); err != nil {
			fmt.Fprintf(os.Stderr, "uafcheck: %v\n", err)
			ioErrors = true
		}
		exit := batchRep.ExitCode()
		if ioErrors {
			exit = 3
		}
		os.Exit(exit)
	}

	var agg uafcheck.Metrics
	for i, fr := range batchRep.Files {
		path, src := files[i].Name, files[i].Src
		if fr.Err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", fr.Err)
			continue
		}
		rep := fr.Report
		if traceFile != nil {
			// Header line so the JSONL trace attributes spans to inputs.
			// Emitted here, after the parallel run, so multi-file traces
			// stay ordered and never interleave.
			if tr := rep.Metrics.Trace; len(tr) > 0 {
				fmt.Fprintf(traceFile, "{\"type\":\"run\",\"file\":%q,\"trace_id\":%q}\n",
					path, tr[0].TraceID)
			} else {
				fmt.Fprintf(traceFile, "{\"type\":\"run\",\"file\":%q}\n", path)
			}
			if err := rep.Metrics.WriteJSONL(traceFile); err != nil {
				fmt.Fprintf(os.Stderr, "uafcheck: trace-out: %v\n", err)
			}
		}
		agg.Merge(rep.Metrics)
		printFile(path, rep, *explain)
		if *showCCFG || *showDot {
			for _, ps := range rep.Stats {
				render := uafcheck.CCFGText
				if *showDot {
					render = uafcheck.CCFGDot
				}
				out, err := render(path, src, ps.Proc)
				if err == nil {
					fmt.Println(out)
				}
			}
		}
		if *trace {
			for proc, tr := range rep.PPSTraces {
				fmt.Printf("PPS trace for proc %s:\n%s", proc, tr)
			}
		}
		if *stats {
			printStats(path, rep.Metrics)
		}
		if *metrics {
			fmt.Printf("metrics for %s:\n%s", path, indent(rep.Metrics.FormatText()))
		}
		if *oracle > 0 && len(rep.Warnings) > 0 {
			validateDynamically(path, src, rep, *oracle, *seed)
		}
		if *execProc != "" {
			out, events, err := uafcheck.ExecuteTraced(path, src, *execProc, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "exec: %v\n", err)
			} else {
				fmt.Printf("---- execution trace of %s (seed %d) ----\n", *execProc, *seed)
				for _, e := range events {
					fmt.Println(e)
				}
				for _, o := range out {
					fmt.Println("output:", o)
				}
			}
		}
		if rr := repairs[path].Report; rr != nil {
			for _, p := range rr.Patches {
				extra := ""
				if p.Token != "" {
					extra = " (token " + p.Token + ")"
				}
				fmt.Printf("fix: %s in %s/%s%s [%d -> %d warnings; %s]\n",
					p.Strategy, p.Proc, p.Task, extra,
					p.Verdict.WarningsBefore, p.Verdict.WarningsAfter,
					strings.Join(p.Verdict.Checks, "+"))
			}
			fmt.Printf("fix: %d -> %d warnings\n", rr.InitialWarnings, rr.RemainingWarnings)
			if rr.Diff != "" {
				fmt.Print(rr.Diff)
			}
		}
	}
	if s := batchRep.Summary; s.Degradations() > 0 {
		fmt.Fprintf(os.Stderr,
			"uafcheck: %d/%d file(s) degraded (%d budget/cancelled, %d timed out, %d crashed; %d retries)\n",
			s.Degradations(), s.Files, s.Degraded, s.TimedOut, s.Crashed, s.Retries)
	}
	if *promOut != "" {
		f, err := os.Create(*promOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uafcheck: %v\n", err)
			os.Exit(3)
		}
		if err := agg.WritePrometheus(f); err != nil {
			fmt.Fprintf(os.Stderr, "uafcheck: %v\n", err)
			ioErrors = true
		}
		f.Close()
	}
	exit := batchRep.ExitCode()
	if ioErrors {
		exit = 3
	}
	os.Exit(exit)
}

// runModule is the -module driver: every input file is linked into one
// module and analyzed interprocedurally, then the per-file reports are
// rendered with the same formats as the batch path. Frontend and
// unresolved-call failures reject the whole module (exit 3) — a module
// is one unit of analysis, not a bag of files.
func runModule(ctx context.Context, files []uafcheck.FileInput, apiOpts []uafcheck.Option, format string, metrics, explain, ioErrors bool) {
	rep, err := uafcheck.AnalyzeModuleContext(ctx, files, apiOpts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(3)
	}
	exit := rep.ExitCode()
	if ioErrors {
		exit = 3
	}
	if format != "text" {
		results := make([]wire.Result, len(rep.Files))
		for i, fr := range rep.Files {
			results[i] = wire.NewResult(fr.Name, fr.Report, fr.Err, metrics)
		}
		if err := emitFormatted(os.Stdout, format, results, nil); err != nil {
			fmt.Fprintf(os.Stderr, "uafcheck: %v\n", err)
			exit = 3
		}
		os.Exit(exit)
	}
	for _, fr := range rep.Files {
		printFile(fr.Name, fr.Report, explain)
	}
	if metrics {
		fmt.Printf("module metrics:\n%s", indent(rep.Metrics.FormatText()))
	}
	os.Exit(exit)
}

// printFile writes one file's text outcome: the degraded notice and
// any recovered crashes on stderr, then its sorted warnings (each with
// its provenance under -explain) and its notes on stdout.
func printFile(name string, rep *uafcheck.Report, explain bool) {
	if d := rep.Degraded; d != nil {
		fmt.Fprintf(os.Stderr, "uafcheck: %s: analysis degraded (%s); warnings are conservative\n",
			name, d.Reason)
		for _, c := range d.Crashes {
			fmt.Fprintf(os.Stderr, "uafcheck: %s: recovered panic in phase %s: %s\n", name, c.Phase, c.Err)
		}
	}
	uafcheck.SortWarnings(rep.Warnings)
	for _, w := range rep.Warnings {
		fmt.Println(w)
		if explain {
			printProvenance(w)
		}
	}
	for _, n := range rep.Notes {
		fmt.Println(n)
	}
}

// emitFormatted renders the machine-readable formats: "json" writes
// one canonical result line per file, "sarif" one indented SARIF 2.1.0
// document covering every file. With -fix results, sarif embeds each
// file's verified patches as SARIF fixes and json appends the repair
// NDJSON lines (kind patch/summary) after the file's result line.
func emitFormatted(w *os.File, format string, results []wire.Result, repairs map[string]wire.RepairedFile) error {
	if format == "sarif" {
		b, err := wire.SARIFWithFixes(results, repairs).EncodeIndent()
		if err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	}
	for _, res := range results {
		line, err := res.Encode()
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
		if rr := repairs[res.Name].Report; rr != nil {
			b, err := wire.EncodeRepair(res.Name, rr)
			if err != nil {
				return err
			}
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// printProvenance renders the explain-mode block under a warning.
func printProvenance(w uafcheck.Warning) {
	p := w.Prov
	if p == nil {
		fmt.Println("  explain: no provenance recorded")
		return
	}
	fmt.Printf("  explain: access %q performed in CCFG node %s\n", w.Var, p.Node)
	switch {
	case p.SinkPPS < 0:
		fmt.Println("  explain: never attributed to any executed sync event on any explored path")
	case p.Stuck:
		fmt.Printf("  explain: still pending in OV of deadlocked PPS %d\n", p.SinkPPS)
	default:
		fmt.Printf("  explain: still pending in OV of sink PPS %d\n", p.SinkPPS)
	}
	if len(p.Chain) > 0 {
		fmt.Printf("  explain: transition chain: %s\n", strings.Join(p.Chain, " -> "))
	}
}

// printStats renders the per-file summary, sourced exclusively from the
// metrics snapshot so -stats and -metrics can never disagree.
func printStats(path string, m uafcheck.Metrics) {
	c := m.Counter
	fmt.Printf("stats for %s:\n", path)
	fmt.Printf("  procs=%d warnings=%d nodes=%d tasks=%d pruned=%d (A=%d B=%d C=%d D=%d) tracked=%d protected=%d\n",
		c("analysis.procs"), c("analysis.warnings"), c("ccfg.nodes"), c("ccfg.tasks"),
		c("prune.tasks"), c("prune.rule_a"), c("prune.rule_b"), c("prune.rule_c"), c("prune.rule_d"),
		c("ccfg.tracked_accesses"), c("ccfg.protected_accesses"))
	fmt.Printf("  states: created=%d processed=%d merged=%d forked=%d sinks=%d deadlock-states=%d peak-frontier=%d\n",
		c("pps.states_created"), c("pps.states_processed"), c("pps.states_merged"),
		c("pps.states_forked"), c("pps.sinks"), c("pps.deadlocks"), m.Gauge("pps.peak_frontier"))
}

// indent shifts a block two spaces for nesting under a header line.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, ln := range lines {
		lines[i] = "  " + ln
	}
	return strings.Join(lines, "\n") + "\n"
}

func validateDynamically(path, src string, rep *uafcheck.Report, runs int, seed int64) {
	byProc := make(map[string][]uafcheck.Warning)
	var procs []string
	for _, w := range rep.Warnings {
		if _, ok := byProc[w.Proc]; !ok {
			procs = append(procs, w.Proc)
		}
		byProc[w.Proc] = append(byProc[w.Proc], w)
	}
	sort.Strings(procs)
	for _, proc := range procs {
		ws := byProc[proc]
		dyn, err := uafcheck.ExploreSchedules(path, src, proc, runs, seed, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oracle: %v\n", err)
			return
		}
		for _, w := range ws {
			verdict := "NOT OBSERVED (possible false positive)"
			if dyn.ObservedUAF(w.Var, w.AccessLine) {
				verdict = "CONFIRMED use-after-free"
			}
			fmt.Printf("oracle: %s:%d %s in %s: %s (%d schedules)\n",
				w.Var, w.AccessLine, w.Task, proc, verdict, dyn.Runs)
		}
	}
}
