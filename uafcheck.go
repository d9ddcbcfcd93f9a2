// Package uafcheck identifies potential use-after-free accesses of outer
// variables in fire-and-forget (begin) tasks of MiniChapel programs — a
// from-scratch reproduction of "Identifying Use-After-Free Variables in
// Fire-and-Forget Tasks" (Krishna & Litvinov, IPPS 2017).
//
// The package exposes the full pipeline of the paper:
//
//   - AnalyzeContext runs the compile-time pass: parse → resolve → lower
//     (with nested-procedure inlining) → Concurrent Control Flow Graph →
//     prune (rules A-D) → Parallel Program State exploration → warnings.
//   - CCFGText / CCFGDot / PPSTrace expose the intermediate artifacts the
//     paper draws in Figures 2, 3 and 7.
//   - ExploreSchedules runs the dynamic oracle: a task-parallel
//     interpreter with real sync-variable semantics and scope-lifetime
//     tracking, driven by seeded random or exhaustive schedulers.
//   - AnalyzeFilesContext runs the pass over many files; cmd/uafcorpus
//     drives it over a synthetic Chapel-1.11-style test suite to
//     regenerate the paper's evaluation (Table I).
//
// Quick start:
//
//	report, err := uafcheck.AnalyzeContext(ctx, "prog.chpl", src)
//	if err != nil { ... }
//	for _, w := range report.Warnings {
//	    fmt.Println(w)
//	}
package uafcheck

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"uafcheck/internal/analysis"
	"uafcheck/internal/ast"
	"uafcheck/internal/batch"
	"uafcheck/internal/cache"
	"uafcheck/internal/obs"
	"uafcheck/internal/pps"
	"uafcheck/internal/runtime"
	"uafcheck/internal/source"
	"uafcheck/internal/sym"
)

// Version identifies the analyzer release. It participates in cache
// content addresses (the report cache and the Analyzer's per-procedure
// memo store), so results cached by one version are never served by
// another.
const Version = "0.9.0"

// ------------------------------------------------------------- telemetry

// Metrics is a telemetry snapshot of one pipeline run: phase timings
// (the phase_ns histogram, one observation per run of parse, resolve,
// lower, ccfg-build, prune, pps-explore, oracle), counters (CCFG
// nodes, tasks pruned per rule, PPS states created / merged / forked,
// sync transitions by kind, oracle schedules), gauges (peak
// exploration frontier) and, with WithTracing, the run's span tree.
// Every AnalyzeContext and ExploreSchedules call populates one on its
// report; FormatText, WriteJSONL and WritePrometheus render it.
type Metrics = obs.Metrics

// Warning is one potentially dangerous outer-variable access.
//
// The struct marshals to a stable, round-trippable JSON object (the
// wire DTO shared by cmd/uafcheck -format=json and the uafserve
// daemon): field order is fixed, zero Prov is omitted, and re-encoding
// a decoded warning reproduces the input bytes.
type Warning struct {
	// Var is the outer variable's name.
	Var string `json:"var"`
	// Task labels the begin task performing the access ("TASK A", ...).
	Task string `json:"task"`
	// Proc is the analyzed root procedure.
	Proc string `json:"proc"`
	// Write distinguishes writes from reads.
	Write bool `json:"write"`
	// Reason is "after-frontier" (the access can happen after the
	// variable's parallel frontier) or "never-synchronized" (no explored
	// execution orders the access before the parent's exit).
	Reason string `json:"reason"`
	// Pos is the access position as file:line:col.
	Pos string `json:"pos"`
	// AccessLine and DeclLine are 1-based source lines; AccessCol is the
	// 1-based source column of the access.
	AccessLine int `json:"access_line"`
	AccessCol  int `json:"access_col"`
	DeclLine   int `json:"decl_line"`
	// Conservative marks a degradation-ladder warning: the exploration
	// stopped early (see Report.Degraded) and the access is flagged
	// because it was not proven safe, not because a dangerous
	// serialization was found. Conservative warnings are always a
	// superset of the warnings a completed run would report.
	Conservative bool `json:"conservative,omitempty"`
	// Prov is the explain-mode provenance: the CCFG node performing the
	// access, the sink PPS whose OV set still held it, and the
	// transition chain that reached that state.
	Prov *WarningProvenance `json:"prov,omitempty"`
}

// WarningProvenance explains why a warning was emitted (see
// Warning.Prov and the -explain flag of cmd/uafcheck).
type WarningProvenance = pps.Provenance

// String renders the warning in compiler style.
func (w Warning) String() string {
	verb := "read"
	if w.Write {
		verb = "write"
	}
	suffix := ""
	if w.Conservative {
		suffix = " (conservative: analysis degraded)"
	}
	return fmt.Sprintf("%s: warning: potentially dangerous %s of outer variable %q "+
		"(declared at line %d) inside %s of proc %s [%s]%s",
		w.Pos, verb, w.Var, w.DeclLine, w.Task, w.Proc, w.Reason, suffix)
}

// SortWarnings orders warnings by (file, line, column, variable) — the
// canonical presentation order used by cmd/uafcheck output and by the
// uafserve wire encoding, so every surface renders the same warning
// list in the same sequence.
func SortWarnings(ws []Warning) {
	sort.SliceStable(ws, func(i, j int) bool {
		a, b := ws[i], ws[j]
		if af, bf := posFile(a.Pos), posFile(b.Pos); af != bf {
			return af < bf
		}
		if a.AccessLine != b.AccessLine {
			return a.AccessLine < b.AccessLine
		}
		if a.AccessCol != b.AccessCol {
			return a.AccessCol < b.AccessCol
		}
		return a.Var < b.Var
	})
}

// posFile extracts the file component of a "file:line:col" position.
// File names may themselves contain colons, so it cuts from the right.
func posFile(pos string) string {
	s := pos
	for i := 0; i < 2; i++ {
		if j := strings.LastIndexByte(s, ':'); j >= 0 {
			s = s[:j]
		}
	}
	return s
}

// ProcStats summarizes the analysis of one root procedure.
type ProcStats struct {
	Proc              string `json:"proc"`
	Nodes             int    `json:"nodes"`
	Tasks             int    `json:"tasks"`
	PrunedTasks       int    `json:"pruned_tasks"`
	TrackedAccesses   int    `json:"tracked_accesses"`
	ProtectedAccesses int    `json:"protected_accesses"`
	StatesCreated     int    `json:"states_created"`
	StatesProcessed   int    `json:"states_processed"`
	StatesMerged      int    `json:"states_merged"`
	Sinks             int    `json:"sinks"`
	Deadlocks         int    `json:"deadlocks"`
	Incomplete        bool   `json:"incomplete,omitempty"`
	// StopReason says why the exploration stopped early ("budget",
	// "deadline", "cancelled"); empty when Incomplete is false.
	StopReason string `json:"stop_reason,omitempty"`
}

// DegradeReason identifies the rung of the degradation ladder that
// fired (Report.Degraded.Reason).
type DegradeReason string

// The degradation ladder, least to most severe.
const (
	// DegradeBudget: the PPS exploration exhausted MaxStates.
	DegradeBudget DegradeReason = "budget"
	// DegradeDeadline: WithDeadline (or the context's deadline)
	// expired mid-analysis.
	DegradeDeadline DegradeReason = "deadline"
	// DegradeCancelled: the caller's context was cancelled.
	DegradeCancelled DegradeReason = "cancelled"
	// DegradePanic: a pipeline stage panicked; the panic was recovered
	// and converted into a structured Crash.
	DegradePanic DegradeReason = "panic"
)

// Crash is a recovered pipeline panic: the per-file structured
// diagnostic that replaces a process crash.
type Crash struct {
	// Proc is the procedure being analyzed ("" when the frontend died).
	Proc string `json:"proc,omitempty"`
	// Phase is the pipeline phase that panicked (parse, resolve, lower,
	// ccfg-build, pps-explore, report).
	Phase string `json:"phase"`
	// Err renders the panic value.
	Err string `json:"err"`
	// Stack is the recovered goroutine stack.
	Stack string `json:"stack,omitempty"`
}

// Degradation explains an incomplete-but-sound result. Its presence
// means the warning list over-approximates: every real issue is still
// reported (soundness is preserved), but conservative warnings may be
// false positives.
type Degradation struct {
	// Reason is the most severe rung that fired:
	// panic > cancelled > deadline > budget.
	Reason DegradeReason `json:"reason"`
	// Procs lists the procedures whose exploration degraded.
	Procs []string `json:"procs,omitempty"`
	// Crashes carries the recovered panics when Reason is DegradePanic.
	Crashes []Crash `json:"crashes,omitempty"`
}

// Report is the outcome of analyzing one file.
//
// Report marshals to stable JSON: map-backed fields (PPSTraces, the
// Metrics maps) encode with sorted keys, empty optional fields are
// omitted, and Marshal(Unmarshal(Marshal(r))) is byte-identical to
// Marshal(r). The disk cache tier and the uafserve wire format both
// rely on this.
type Report struct {
	// Warnings are the potentially dangerous accesses, in source order
	// per analyzed procedure.
	Warnings []Warning `json:"warnings,omitempty"`
	// Notes carry analysis-limit information (subsumed loops, recursion
	// cutoffs, potential deadlocks, style notes).
	Notes []string `json:"notes,omitempty"`
	// Truncated is set when any analyzed procedure's lowering hit the
	// nested-call recursion cutoff (§III-A: inlining stops where a chain
	// of nested-procedure calls returns to a procedure it is already
	// inlining), so deeper call chains were dropped. The corresponding
	// "recursive nested procedure ...: inlining stopped" note pinpoints
	// the site; before 0.7.0 only the note existed.
	Truncated bool `json:"truncated,omitempty"`
	// Stats has one entry per analyzed root procedure.
	Stats []ProcStats `json:"stats,omitempty"`
	// PPSTraces maps procedure names to their formatted PPS tables when
	// WithTrace is set.
	PPSTraces map[string]string `json:"pps_traces,omitempty"`
	// Metrics is the run's telemetry snapshot: phase timings, pipeline
	// counters and gauges (rendered by the -metrics, -trace-out and
	// -prom-out flags of cmd/uafcheck).
	Metrics Metrics `json:"metrics"`
	// Degraded is non-nil when the analysis stopped before exhausting
	// the state space (budget, deadline, cancellation or a recovered
	// panic). The result is still sound — conservative warnings
	// over-approximate a full run — but callers that need completeness
	// must check this field (cmd/uafcheck maps it to exit code 2).
	Degraded *Degradation `json:"degraded,omitempty"`
}

// analyzeWith is the one per-file function: AnalyzeContext,
// Analyzer.AnalyzeDelta and every attempt of AnalyzeFilesContext run
// it. Without a handle in cfg it is a one-shot run; a handle lends its
// memo store and counts the run.
func analyzeWith(ctx context.Context, filename, src string, cfg config) (rep *Report, err error) {
	a := cfg.analyzer
	if a != nil {
		a.files.Add(1)
	}
	ctx, cancel := cfg.callContext(ctx)
	defer cancel()
	defer recoverCrash(func(c Crash) { rep, err = crashReport(c), nil })
	rec := obs.New()
	in := cfg.internal()
	in.KeepGraphs = cfg.trace
	in.Obs = rec
	in.Ctx = ctx

	var key cache.Key
	if cfg.cache != nil {
		key = reportKey(filename, src, in)
		hit, ok, lookupNS := cacheLookup(ctx, cfg.cache, key, rec)
		if ok {
			return cacheHit(hit, lookupNS), nil
		}
		rec.Add(obs.CtrCacheMisses, 1)
	}

	var res *analysis.Result
	if a == nil {
		res = analysis.AnalyzeSource(filename, src, in)
	} else {
		res = a.analyzeSource(filename, src, in)
	}
	if res.Diags.HasErrors() {
		return nil, fmt.Errorf("%w:\n%s", ErrParse, frontendErrors(res.Diags))
	}
	rep = buildReport(res, cfg)
	if cfg.cache != nil && rep.Degraded == nil {
		rec.Add(obs.CtrCacheStores, 1)
	}
	rep.Metrics = rec.Finish()
	// Only complete results are cached: a degraded report depends on the
	// budget/deadline race of this particular run, so serving it later
	// could mask a complete result the caller's options would produce.
	if cfg.cache != nil && rep.Degraded == nil {
		cachePut(cfg.cache, key, rep)
	}
	return rep, nil
}

// callContext derives one call's context: Background for a nil ctx,
// bounded by WithDeadline when set.
func (c *config) callContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.deadline > 0 {
		return context.WithTimeout(ctx, c.deadline)
	}
	return ctx, func() {}
}

// recoverCrash, deferred by an entry point, is the last-resort fault
// isolation for crashes outside the per-proc pipeline (frontend, report
// assembly): it hands the panic to fill as a Crash, so the call returns
// a degraded result instead of unwinding into its caller. Per-proc
// panics are already recovered and attributed by internal/analysis.
func recoverCrash(fill func(Crash)) {
	if r := recover(); r != nil {
		fill(Crash{Phase: "frontend", Err: fmt.Sprint(r), Stack: string(debug.Stack())})
	}
}

// crashReport is the report of a file whose pipeline crashed outside
// the per-proc recovery.
func crashReport(c Crash) *Report {
	return &Report{Degraded: &Degradation{Reason: DegradePanic, Crashes: []Crash{c}}}
}

// cacheLookup times one report-cache consult, records the latency on
// the recorder (cache.lookup_ns) and, when ctx carries a trace, as a
// "cache-lookup" span with the outcome attribute.
func cacheLookup(ctx context.Context, c *Cache, key cache.Key, rec *obs.Recorder) (*Report, bool, int64) {
	_, sp := obs.StartSpan(ctx, "cache-lookup")
	start := time.Now()
	hit, ok := c.get(key)
	lookupNS := time.Since(start).Nanoseconds()
	rec.Observe(obs.HistCacheLookupNS, lookupNS)
	if ok {
		sp.SetAttr("outcome", "hit")
	} else {
		sp.SetAttr("outcome", "miss")
	}
	sp.End()
	return hit, ok, lookupNS
}

// cachePut stores a completed report, stripping the run's span tree
// first (Put clones, so the caller's report keeps its trace): a trace
// describes one run, and serving it with a later hit would misattribute
// that run's spans to the hit.
func cachePut(c *Cache, key cache.Key, rep *Report) {
	if rep.Metrics.Trace == nil {
		c.put(key, rep)
		return
	}
	tr := rep.Metrics.Trace
	rep.Metrics.Trace = nil
	c.put(key, rep)
	rep.Metrics.Trace = tr
}

// cacheHit finalizes a report served from the cache: the clone keeps the
// original run's telemetry (phase timings, pipeline counters, its own
// cache.misses rung) and gains a cache.hits mark plus this consult's
// lookup latency. The lookup histogram is replaced, not merged — the
// stored report's own (miss) lookup belongs to the run that produced
// it, not to this hit.
func cacheHit(rep *Report, lookupNS int64) *Report {
	if rep.Metrics.Counters == nil {
		rep.Metrics.Counters = make(map[string]int64)
	}
	rep.Metrics.Counters[obs.CtrCacheHits]++
	if rep.Metrics.Hists == nil {
		rep.Metrics.Hists = make(map[string]obs.Histogram)
	}
	var h obs.Histogram
	h.Observe(lookupNS)
	rep.Metrics.Hists[obs.HistCacheLookupNS] = h
	return rep
}

// buildReport converts an internal analysis result into the public
// Report shape (shared by the single-file and module drivers).
func buildReport(res *analysis.Result, cfg config) *Report {
	rep := &Report{}
	for _, w := range res.Warnings() {
		rep.Warnings = append(rep.Warnings, Warning{
			Var: w.Var, Task: w.Task, Proc: w.Proc, Write: w.Write,
			Reason: w.Reason.String(), Pos: w.Pos,
			AccessLine: w.AccessLine, AccessCol: w.AccessCol,
			DeclLine: w.DeclLine, Conservative: w.Conservative, Prov: w.Prov,
		})
	}
	for _, d := range res.Diags.All() {
		if d.Severity == source.Note {
			rep.Notes = append(rep.Notes, d.String())
		}
	}
	for _, pr := range res.Procs {
		if pr.Truncated {
			rep.Truncated = true
		}
		rep.Stats = append(rep.Stats, ProcStats{
			Proc:              pr.Proc.Name.Name,
			Nodes:             pr.GraphStats.Nodes,
			Tasks:             pr.GraphStats.Tasks,
			PrunedTasks:       pr.GraphStats.PrunedTasks,
			TrackedAccesses:   pr.GraphStats.TrackedAccesses,
			ProtectedAccesses: pr.GraphStats.ProtectedAccesses,
			StatesCreated:     pr.PPSStats.StatesCreated,
			StatesProcessed:   pr.PPSStats.StatesProcessed,
			StatesMerged:      pr.PPSStats.StatesMerged,
			Sinks:             pr.PPSStats.Sinks,
			Deadlocks:         pr.Deadlocks,
			Incomplete:        pr.PPSStats.Incomplete,
			StopReason:        string(pr.PPSStats.Stop),
		})
		if cfg.trace && pr.PPS != nil {
			if rep.PPSTraces == nil {
				rep.PPSTraces = make(map[string]string)
			}
			rep.PPSTraces[pr.Proc.Name.Name] = pps.FormatTrace(pr.PPS.Trace)
		}
	}
	rep.Degraded = degradationOf(res)
	return rep
}

// degradationOf maps an analysis result to the public Degradation
// summary (nil when the run completed).
func degradationOf(res *analysis.Result) *Degradation {
	reason := res.Degraded()
	if reason == pps.StopNone {
		return nil
	}
	deg := &Degradation{Reason: DegradeReason(reason)}
	for _, pr := range res.Procs {
		if pr.PPSStats.Incomplete {
			deg.Procs = append(deg.Procs, pr.Proc.Name.Name)
		}
	}
	for _, c := range res.Crashes {
		deg.Procs = append(deg.Procs, c.Proc)
		deg.Crashes = append(deg.Crashes, Crash{
			Proc: c.Proc, Phase: c.Phase, Err: c.Err, Stack: c.Stack,
		})
	}
	return deg
}

func frontendErrors(d *source.Diagnostics) string {
	var b strings.Builder
	for _, x := range d.All() {
		if x.Severity == source.Error {
			b.WriteString(x.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// ---------------------------------------------------------------- batch

// FileInput is one file of a batch analysis.
type FileInput struct {
	// Name labels the file in warnings and reports (usually its path).
	Name string
	// Src is the source text.
	Src string
}

// BatchSummary is the aggregate accounting of one batch run: files OK /
// degraded / crashed / timed out / frontend errors, retries spent, and
// warning totals.
type BatchSummary = batch.Summary

// FileReport is one file's outcome in a batch or module run.
type FileReport struct {
	// Name echoes the input name.
	Name string
	// Status classifies the outcome: "ok", "degraded", "timed-out",
	// "crashed" or "error" — the same word internal/wire puts on the
	// file's line.
	Status string
	// Report is the file's analysis report, exactly what AnalyzeContext
	// returns for it. It is nil only when Err is set; for degraded
	// statuses Report.Degraded carries the ladder reason.
	Report *Report
	// Err is set when there is no report: the frontend rejected the file
	// (matching ErrParse), or its analysis hung past the deadline plus a
	// grace period and was abandoned (matching ErrDeadline). Its status
	// is "error" either way.
	Err error
	// Cached marks a report served from the WithCache cache without
	// running the pipeline.
	Cached bool
	// Attempts counts analysis runs (retries included).
	Attempts int
	// Duration is the file's wall clock across attempts.
	Duration time.Duration
}

// BatchReport is the outcome of a multi-file run: AnalyzeFilesContext,
// AnalyzeModuleContext or Analyzer.AnalyzeModuleDelta.
type BatchReport struct {
	// Files holds one report per input, index-aligned.
	Files []FileReport
	// Summary is the aggregate accounting, folded from the files'
	// grades.
	Summary BatchSummary
	// Metrics aggregates per-file telemetry plus the batch counters; a
	// module run's is the module-wide snapshot.
	Metrics Metrics
}

// ExitCode maps the batch outcome onto the documented uafcheck shell
// contract: 0 = clean, 1 = exact warnings, 2 = degraded/incomplete
// somewhere (conservative warnings, timeouts, recovered crashes),
// 3 = files without a report (frontend errors, or analyses abandoned
// as hung). Higher codes dominate.
func (b *BatchReport) ExitCode() int {
	s := b.Summary
	switch {
	case s.Errors > 0:
		return 3
	case s.Degradations() > 0:
		return 2
	case s.Warnings > 0:
		return 1
	}
	return 0
}

// AnalyzeFilesContext analyzes many files under ctx on a worker pool
// with per-file deadlines (WithDeadline bounds each attempt), bounded
// retry-with-smaller-budget, and panic isolation: one pathological or
// crashing input degrades that file's report and never takes down the
// batch. Each attempt is one AnalyzeContext run of the file, so a
// file's report is the one AnalyzeContext returns for it. Results are
// index-aligned with files. Cancelling ctx degrades unfinished files to
// conservative results instead of dropping them. BatchReport.Metrics
// carries the merged telemetry of the files plus the batch counters.
func AnalyzeFilesContext(ctx context.Context, files []FileInput, options ...Option) *BatchReport {
	cfg := newConfig(options...)
	// File-level workers already saturate the machine, so an unset
	// in-analysis parallelism means sequential exploration here (a
	// single AnalyzeContext call defaults to GOMAXPROCS instead).
	if cfg.parallelism <= 0 {
		cfg.parallelism = 1
	}
	attempt := func(ctx context.Context, i, maxStates int) FileReport {
		acfg := cfg
		acfg.deadline = 0 // ctx already carries it
		acfg.maxStates = maxStates
		rep, err := analyzeWith(ctx, files[i].Name, files[i].Src, acfg)
		return FileReport{Report: rep, Err: err}
	}
	out := &BatchReport{Files: make([]FileReport, len(files))}
	// Each file's slot is written on the worker that finished it, after
	// its last attempt returned; an abandoned attempt writes nothing.
	onResult := func(r batch.Result[FileReport]) {
		fr := r.Value
		fr.Name = files[r.Index].Name
		if r.Hung {
			fr.Err = fmt.Errorf("%w: %s: analysis abandoned: no result within the deadline plus grace",
				ErrDeadline, fr.Name)
		}
		fr.Status = r.Status.String()
		fr.Cached = fr.Report != nil && fr.Report.Metrics.Counter(obs.CtrCacheHits) > 0
		fr.Attempts, fr.Duration = r.Attempts, r.Duration
		out.Files[r.Index] = fr
		if cfg.onFile != nil {
			cfg.onFile(r.Index, fr)
		}
	}
	// Source length is the cost estimate the pool dispatches by.
	weights := make([]int, len(files))
	for i := range files {
		weights[i] = len(files[i].Src)
	}
	rec := obs.New() // batch-level counters and span
	_, out.Summary = batch.Run(weights, batch.Options{
		Workers:     cfg.workers,
		FileTimeout: cfg.deadline,
		Retries:     cfg.retries,
		MaxStates:   cfg.maxStates,
		Ctx:         ctx,
		Obs:         rec,
	}, attempt, gradeFile, onResult)
	for i := range out.Files {
		if rep := out.Files[i].Report; rep != nil {
			out.Metrics.Merge(rep.Metrics)
		}
	}
	out.Metrics.Merge(rec.Snapshot())
	return out
}

// gradeFile classifies one file outcome. Its Status is the one
// derivation of FileReport.Status, for batch and module runs alike.
func gradeFile(fr FileReport) batch.Grade {
	rep := fr.Report
	if fr.Err != nil || rep == nil {
		return batch.Grade{Status: batch.Failed}
	}
	var reason pps.StopReason
	if rep.Degraded != nil {
		reason = pps.StopReason(rep.Degraded.Reason)
	}
	g := batch.Grade{Status: batch.StatusFor(reason)}
	for _, w := range rep.Warnings {
		g.Warnings++
		if w.Conservative {
			g.Conservative++
		}
	}
	return g
}

// CCFGText renders the Concurrent Control Flow Graph of one procedure as
// an indented listing (Figure 2 / Figure 7 regeneration).
func CCFGText(filename, src, proc string) (string, error) {
	return renderCCFG(filename, src, proc, false)
}

// CCFGDot renders the CCFG in Graphviz dot syntax.
func CCFGDot(filename, src, proc string) (string, error) {
	return renderCCFG(filename, src, proc, true)
}

func renderCCFG(filename, src, proc string, dot bool) (string, error) {
	in := analysis.DefaultOptions()
	in.KeepGraphs = true
	res := analysis.AnalyzeSource(filename, src, in)
	if res.Diags.HasErrors() {
		return "", fmt.Errorf("%w:\n%s", ErrParse, frontendErrors(res.Diags))
	}
	for _, pr := range res.Procs {
		if proc == "" || pr.Proc.Name.Name == proc {
			if dot {
				return pr.Graph.DOT(), nil
			}
			return pr.Graph.Text(), nil
		}
	}
	return "", fmt.Errorf("uafcheck: no analyzed procedure %q (only procs containing begin are analyzed)", proc)
}

// PPSStateDOT renders the explored Parallel Program State machine of one
// procedure in Graphviz dot syntax: states, rule-labeled transitions,
// sinks and unsafe residues.
func PPSStateDOT(filename, src, proc string) (string, error) {
	in := analysis.DefaultOptions()
	in.KeepGraphs = true
	in.PPS.Trace = true
	res := analysis.AnalyzeSource(filename, src, in)
	if res.Diags.HasErrors() {
		return "", fmt.Errorf("%w:\n%s", ErrParse, frontendErrors(res.Diags))
	}
	for _, pr := range res.Procs {
		if proc == "" || pr.Proc.Name.Name == proc {
			return pps.FormatTraceDOT(pr.PPS), nil
		}
	}
	return "", fmt.Errorf("uafcheck: no analyzed procedure %q", proc)
}

// PPSTrace renders the Parallel Program State table of one procedure
// (Figure 3 / Figure 7 regeneration).
func PPSTrace(filename, src, proc string) (string, error) {
	in := analysis.DefaultOptions()
	in.KeepGraphs = true
	in.PPS.Trace = true
	res := analysis.AnalyzeSource(filename, src, in)
	if res.Diags.HasErrors() {
		return "", fmt.Errorf("%w:\n%s", ErrParse, frontendErrors(res.Diags))
	}
	for _, pr := range res.Procs {
		if proc == "" || pr.Proc.Name.Name == proc {
			return pps.FormatTrace(pr.PPS.Trace), nil
		}
	}
	return "", fmt.Errorf("uafcheck: no analyzed procedure %q", proc)
}

// ---------------------------------------------------------------- oracle

// DynamicReport is the dynamic-oracle outcome.
type DynamicReport struct {
	// Runs is the number of schedules executed.
	Runs int
	// UAFSites lists observed use-after-free sites as "var:line".
	UAFSites []string
	// RaceSites lists observed data-race site pairs as
	// "var:line1/var:line2" (vector-clock detector).
	RaceSites []string
	// Deadlocks counts schedules that deadlocked.
	Deadlocks int
	// Exhausted is true when the full schedule space was covered.
	Exhausted bool
	// Metrics is the oracle's telemetry snapshot (oracle span, schedules
	// run, scheduler steps, deadlocks, distinct UAF sites).
	Metrics Metrics
}

// ObservedUAF reports whether the site (variable name + access line) was
// dynamically confirmed.
func (d *DynamicReport) ObservedUAF(varName string, line int) bool {
	key := fmt.Sprintf("%s:%d", varName, line)
	for _, s := range d.UAFSites {
		if s == key {
			return true
		}
	}
	return false
}

// ExploreSchedules runs the program under many schedules. With
// exhaustive=true it enumerates the schedule space depth-first up to runs
// executions; otherwise it samples runs seeded random schedules.
func ExploreSchedules(filename, src, entry string, runs int, seed int64, exhaustive bool) (*DynamicReport, error) {
	return exploreSchedules(filename, src, exhaustive, func(mod *ast.Module, info *sym.Info) *runtime.ExploreResult {
		if exhaustive {
			return runtime.Explore(context.TODO(), mod, info, entry, runs, -1)
		}
		return runtime.ExploreRandom(context.TODO(), mod, info, entry, runs, seed)
	})
}

// ExploreSchedulesBounded enumerates schedules with at most `bound`
// preemptions each (iterative context bounding): exponentially fewer
// schedules than full exhaustion while retaining almost all bug-finding
// power — most use-after-free schedules need only one or two
// preemptions. A negative bound enumerates the full tree.
func ExploreSchedulesBounded(filename, src, entry string, maxRuns, bound int) (*DynamicReport, error) {
	return exploreSchedules(filename, src, true, func(mod *ast.Module, info *sym.Info) *runtime.ExploreResult {
		return runtime.Explore(context.TODO(), mod, info, entry, maxRuns, bound)
	})
}

// exploreSchedules is the one oracle body: it loads the program, runs
// explore under the oracle phase and builds the report. A systematic
// exploration that did not hit its run budget exhausted the space.
func exploreSchedules(filename, src string, systematic bool, explore func(*ast.Module, *sym.Info) *runtime.ExploreResult) (*DynamicReport, error) {
	mod, info, diags := runtime.Load(filename, src)
	if diags.HasErrors() {
		return nil, fmt.Errorf("%w:\n%s", ErrParse, frontendErrors(diags))
	}
	rec := obs.New()
	endOracle := rec.Span(obs.PhaseOracle)
	er := explore(mod, info)
	endOracle()
	rep := &DynamicReport{Runs: er.Runs, Deadlocks: er.Deadlocks, Exhausted: systematic && !er.Truncated}
	for k := range er.UAF {
		rep.UAFSites = append(rep.UAFSites, k)
	}
	for k := range er.Races {
		rep.RaceSites = append(rep.RaceSites, k)
	}
	sort.Strings(rep.UAFSites)
	sort.Strings(rep.RaceSites)
	rec.Add(obs.CtrOracleSchedules, int64(er.Runs))
	rec.Add(obs.CtrOracleSteps, int64(er.TotalSteps))
	rec.Add(obs.CtrOracleDeadlocks, int64(er.Deadlocks))
	rec.Add(obs.CtrOracleUAFSites, int64(len(er.UAF)))
	rep.Metrics = rec.Snapshot()
	return rep, nil
}

// ExecuteTraced runs the program once under a seeded random schedule and
// returns its writeln output plus the execution event trace (task spawns,
// sync-variable transitions, blocking, scope deaths, use-after-free
// hits) — the dynamic counterpart of the PPS table.
func ExecuteTraced(filename, src, entry string, seed int64) (output, trace []string, err error) {
	mod, info, diags := runtime.Load(filename, src)
	if diags.HasErrors() {
		return nil, nil, fmt.Errorf("%w:\n%s", ErrParse, frontendErrors(diags))
	}
	r := runtime.Run(mod, info, runtime.Config{
		Entry:         entry,
		CaptureOutput: true,
		Trace:         true,
		Policy:        runtime.NewRandomPolicy(seed),
	})
	return r.Output, r.Trace, nil
}
