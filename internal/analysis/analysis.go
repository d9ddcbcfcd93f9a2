// Package analysis is the end-to-end compiler pass of the paper: it
// parses MiniChapel source, resolves names, lowers each outermost
// procedure containing begin tasks (partial inter-procedural analysis,
// §III), builds and prunes the CCFG, explores the Parallel Program
// States, and renders the potentially-dangerous-access warnings the
// paper's modified Chapel compiler prints.
package analysis

import (
	"context"
	"fmt"
	"runtime/debug"

	"uafcheck/internal/ast"
	"uafcheck/internal/ccfg"
	"uafcheck/internal/fault"
	"uafcheck/internal/ir"
	"uafcheck/internal/modgraph"
	"uafcheck/internal/obs"
	"uafcheck/internal/parser"
	"uafcheck/internal/pps"
	"uafcheck/internal/source"
	"uafcheck/internal/sym"
)

// Options configure the pass.
type Options struct {
	// Prune applies the CCFG pruning rules A-D (default on; the ablation
	// benchmark switches it off).
	Prune bool
	// ModelAtomics enables the atomics extension (§IV-A sketch / §VII
	// future work): atomic writes as fill events, waitFor as
	// SINGLE-READ-like waits. Off by default, matching the paper.
	ModelAtomics bool
	// CountAtomics (implies ModelAtomics) additionally models monotonic
	// atomic variables as saturating counters, verifying waitFor(n)
	// counting protocols.
	CountAtomics bool
	// PPS configures the state exploration.
	PPS pps.Options
	// KeepGraphs retains the per-proc CCFG and PPS results (figure
	// regeneration, tests); corpus runs leave it off to save memory.
	KeepGraphs bool
	// Obs receives phase spans and pipeline counters from every stage;
	// nil disables telemetry at zero cost.
	Obs *obs.Recorder
	// Ctx carries the file's deadline/cancellation budget. It is polled
	// at phase boundaries and inside the PPS hot loop; when it fires,
	// each remaining procedure degrades to conservative warnings instead
	// of being skipped. nil means no budget. When Ctx carries an
	// obs.Trace, the pipeline's phases attach hierarchical spans to it.
	Ctx context.Context
	// RecordTrace creates a per-file trace (deterministic ID derived
	// from the file name and content) when Ctx does not already carry
	// one, and attaches the completed span tree to Result.Trace. When
	// Ctx carries an ambient trace (a server request), spans go there
	// instead and Result.Trace stays nil — the request owns the tree.
	// Excluded from Fingerprint: tracing never changes results.
	RecordTrace bool
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{Prune: true}
}

// Fingerprint canonically encodes every option that can change an
// analysis result — the options half of the content-addressed cache
// key. Resource knobs that only change wall clock, never the committed
// outcome, are deliberately excluded: PPS.Parallelism (the wave
// explorer is deterministic by construction), Obs/sinks, and
// Ctx/deadlines (a run that degrades is never cached). MaxStates and
// MaxOutcomes ARE included: a budget-truncated result depends on them.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("prune=%t atomics=%t count=%t maxstates=%d maxoutcomes=%d trace=%t nomerge=%t keep=%t",
		o.Prune, o.ModelAtomics, o.CountAtomics,
		o.PPS.MaxStates, o.PPS.MaxOutcomes,
		o.PPS.Trace, o.PPS.DisableMerge, o.KeepGraphs)
}

// Warning is one reported potentially dangerous outer-variable access.
type Warning struct {
	Var   string
	Task  string
	Proc  string
	Write bool
	// Conservative marks warnings emitted by the degradation ladder: the
	// exploration stopped early (budget, deadline, cancellation) and the
	// access was flagged because it was not proven safe, not because it
	// was proven dangerous.
	Conservative bool
	Reason       pps.UnsafeReason
	AccessLine   int
	// AccessCol is the 1-based source column of the access.
	AccessCol int
	DeclLine  int
	// DeclPos is the byte offset of the variable's declaration (NoPos
	// when the symbol has no recorded declaration). The incremental
	// engine uses it to tell declarations inside the analyzed procedure
	// (stored line-relative, rebased on reuse) from module-level ones
	// (stored absolute).
	DeclPos source.Pos
	Pos     string // file:line:col of the access
	// Prov carries the explain-mode provenance: the CCFG node of the
	// access, the sink PPS that still held it, and the transition chain
	// that reached it.
	Prov *pps.Provenance
}

// String renders the warning in compiler style.
func (w Warning) String() string {
	verb := "read"
	if w.Write {
		verb = "write"
	}
	if w.Conservative {
		return fmt.Sprintf("%s: warning: potentially dangerous %s of outer variable %q "+
			"(declared at line %d) inside %s of proc %s: analysis degraded before the "+
			"access could be proven safe [%s]",
			w.Pos, verb, w.Var, w.DeclLine, w.Task, w.Proc, w.Reason)
	}
	return fmt.Sprintf("%s: warning: potentially dangerous %s of outer variable %q "+
		"(declared at line %d) inside %s of proc %s: the task may execute after "+
		"the variable's scope has exited [%s]",
		w.Pos, verb, w.Var, w.DeclLine, w.Task, w.Proc, w.Reason)
}

// StopPanic extends the pps stop reasons with the panic-isolation rung
// of the degradation ladder: a recovered pipeline crash.
const StopPanic pps.StopReason = "panic"

// Crash is a recovered panic inside the per-procedure pipeline — the
// structured diagnostic the fault-isolated drivers aggregate instead of
// letting one bad input take down a batch.
type Crash struct {
	// Proc is the procedure being analyzed when the panic fired.
	Proc string
	// Phase is the pipeline phase that crashed (lower, ccfg-build,
	// pps-explore, report).
	Phase string
	// Err is the panic value's rendering.
	Err string
	// Stack is the recovered goroutine stack.
	Stack string
}

// ProcResult holds the analysis artifacts of one root procedure.
type ProcResult struct {
	Proc     *ast.ProcDecl
	Program  *ir.Program
	Graph    *ccfg.Graph
	PPS      *pps.Result
	Warnings []Warning
	// Pruned counts tasks removed by each rule.
	GraphStats ccfg.Stats
	PPSStats   pps.Stats
	// HasAtomics marks procs whose graphs contain atomic operations —
	// the evaluation's dominant false-positive source (§V).
	HasAtomics bool
	Deadlocks  int
	// Truncated reports that the nested-procedure recursion cutoff
	// fired while lowering this procedure (paper §III-A): the analysis
	// saw a partial expansion of a cyclic nested-call chain.
	Truncated bool
}

// Result is the analysis of one file.
type Result struct {
	Module *ast.Module
	// Info is the file's name resolution. It is nil when the file has
	// no begin (Module.Begins == 0): such a file is only name-checked
	// (sym.Check), since no procedure of it is analyzed. It is also nil
	// after a parse error.
	Info  *sym.Info
	Diags *source.Diagnostics
	Procs []*ProcResult
	// Crashes lists procedures whose pipeline panicked; the panic was
	// recovered, the remaining procedures still analyzed.
	Crashes []Crash
	// Trace is the file's completed span tree when Options.RecordTrace
	// created a per-file trace (nil when the caller owns the trace).
	Trace []obs.TraceSpan
}

// Degraded returns the file's aggregate degradation cause, or StopNone
// when every procedure ran to completion. When procedures degraded for
// different reasons the most severe wins: panic > cancelled > deadline >
// budget.
func (r *Result) Degraded() pps.StopReason {
	rank := map[pps.StopReason]int{
		pps.StopBudget: 1, pps.StopDeadline: 2, pps.StopCancelled: 3, StopPanic: 4,
	}
	worst := pps.StopNone
	if len(r.Crashes) > 0 {
		worst = StopPanic
	}
	for _, pr := range r.Procs {
		if s := pr.PPSStats.Stop; rank[s] > rank[worst] {
			worst = s
		}
	}
	return worst
}

// Warnings returns all warnings across procedures, in source order per
// procedure.
func (r *Result) Warnings() []Warning {
	var out []Warning
	for _, p := range r.Procs {
		out = append(out, p.Warnings...)
	}
	return out
}

// AnalyzeSource parses and analyzes one source text.
func AnalyzeSource(name, src string, opts Options) *Result {
	res, _ := AnalyzeSourceIncremental(name, src, opts, nil)
	return res
}

// AnalyzeSourceIncremental is AnalyzeSource with per-unit memoization:
// parse and resolve always run (they are cheap and position-bearing),
// then each root procedure is either served from the unit store or
// analyzed afresh and stored. The assembled Result is indistinguishable
// from a from-scratch run. A nil store, and KeepGraphs or PPS-trace
// runs (the retained graphs are not serializable), analyze every unit
// afresh. When tracing is active (an ambient trace on Options.Ctx, or
// Options.RecordTrace) the file gets a "file" span parenting the
// per-procedure phase spans.
func AnalyzeSourceIncremental(name, src string, opts Options, units *Units) (*Result, IncrStats) {
	file := source.NewFile(name, src)
	var owned *obs.Trace
	if opts.RecordTrace && obs.TraceFrom(opts.Ctx) == nil {
		owned = obs.NewTrace(obs.DeriveTraceID("uafcheck/file", file.Name, file.Content))
		opts.Ctx = obs.ContextWithTrace(opts.Ctx, owned)
	}
	ctx, fileSp := obs.StartSpan(opts.Ctx, "file")
	fileSp.SetAttr("name", file.Name)
	if units != nil {
		fileSp.SetAttr("mode", "incremental")
	}
	opts.Ctx = ctx
	res, stats := analyzeFile(file, opts, units)
	fileSp.End()
	if owned != nil {
		res.Trace = owned.Spans()
		opts.Obs.SetTrace(res.Trace)
	}
	return res, stats
}

// analyzeFile is the single-file front end: the file resolves on its
// own, so calls to other top-level procedures stay opaque (§III).
func analyzeFile(file *source.File, opts Options, units *Units) (*Result, IncrStats) {
	diags := &source.Diagnostics{}
	_, endParse := obs.StartPhase(opts.Ctx, opts.Obs, obs.PhaseParse)
	mod := parser.Parse(file, diags)
	endParse()
	res := &Result{Module: mod, Diags: diags}
	if diags.HasErrors() {
		// Frontend errors: skip the concurrency pass, matching a compiler
		// that stops before its analysis phases.
		return res, IncrStats{}
	}
	_, endResolve := obs.StartPhase(opts.Ctx, opts.Obs, obs.PhaseResolve)
	if mod.Begins == 0 {
		// No begin, no analysis roots: only the diagnostics of name
		// resolution are left to compute, and Check builds none of the
		// tables the roots would read.
		sym.Check(mod, diags)
		endResolve()
		return res, IncrStats{}
	}
	info := sym.Resolve(mod, diags)
	endResolve()
	res.Info = info
	if diags.HasErrors() {
		return res, IncrStats{}
	}
	d := newDriver(opts, units)
	files := []*modgraph.File{{Mod: mod, Info: info}}
	d.sites = procCallSites(files)
	d.synced = syncedRefParamsFrom(d.sites, files)
	d.roots(file, res)
	return res, d.stats
}

// analyzeProcSafe is the fault-isolation rung of the ladder: a panic
// anywhere in one procedure's lower → CCFG → PPS pipeline is converted
// into a structured Crash instead of aborting the file (or a whole
// batch). phase is threaded through analyzeProc so the crash records
// which stage died.
func analyzeProcSafe(info *sym.Info, proc *ast.ProcDecl, synced map[*sym.Symbol]bool,
	opts Options, diags *source.Diagnostics, low ir.LowerOptions) (pr *ProcResult, crash *Crash) {
	phase := obs.PhaseLower
	defer func() {
		if r := recover(); r != nil {
			crash = &Crash{
				Proc:  proc.Name.Name,
				Phase: phase,
				Err:   fmt.Sprint(r),
				Stack: string(debug.Stack()),
			}
			pr = nil
		}
	}()
	pr = analyzeProc(info, proc, synced, opts, diags, low, &phase)
	return pr, nil
}

func analyzeProc(info *sym.Info, proc *ast.ProcDecl, synced map[*sym.Symbol]bool,
	opts Options, diags *source.Diagnostics, low ir.LowerOptions, phase *string) *ProcResult {
	// Chaos hooks: a stalled worker (the deadline checks below then run
	// against the delayed clock) and an injected crash, which the
	// analyzeProcSafe recover turns into a Crash + degraded report —
	// exactly the path a real panic takes.
	fault.Sleep(fault.AnalysisDelay)
	fault.MaybePanic(fault.AnalysisPanic)
	pctx, procSp := obs.StartSpan(opts.Ctx, "proc")
	procSp.SetAttr("name", proc.Name.Name)
	opts.Ctx = pctx
	defer procSp.End()
	_, endLower := obs.StartPhase(opts.Ctx, opts.Obs, obs.PhaseLower)
	prog := ir.LowerWith(info, proc, diags, low)
	endLower()
	*phase = obs.PhaseCCFG
	g := ccfg.Build(prog, diags, ccfg.BuildOptions{
		Prune:           opts.Prune,
		SyncedRefParams: synced,
		ModelAtomics:    opts.ModelAtomics,
		CountAtomics:    opts.CountAtomics,
		Obs:             opts.Obs,
		Ctx:             opts.Ctx,
	})
	*phase = obs.PhaseExplore
	ppsOpts := opts.PPS
	ppsOpts.Obs = opts.Obs
	ppsOpts.Ctx = opts.Ctx
	r := pps.Explore(g, ppsOpts)
	*phase = "report"

	pr := &ProcResult{
		Proc:       proc,
		GraphStats: g.Stats(),
		PPSStats:   r.Stats,
		HasAtomics: pr0HasAtomics(g),
		Deadlocks:  len(r.Deadlocks),
		Truncated:  prog.Truncated,
	}
	if opts.KeepGraphs {
		pr.Program = prog
		pr.Graph = g
		pr.PPS = r
	}
	file := info.Module.File
	for _, u := range r.Unsafe {
		a := u.Access
		pr.Warnings = append(pr.Warnings, Warning{
			Var:          a.Sym.Name,
			Task:         a.Task.Label,
			Proc:         proc.Name.Name,
			Write:        a.Write,
			Conservative: u.Conservative,
			Reason:       u.Reason,
			AccessLine:   file.Line(a.Sp.Start),
			AccessCol:    file.Column(a.Sp.Start),
			DeclLine:     declLine(file, a.Sym),
			DeclPos:      declPos(a.Sym),
			Pos:          file.Position(a.Sp.Start),
			Prov:         u.Prov,
		})
	}
	if len(r.Deadlocks) > 0 {
		diags.Addf(file, proc.Name.Sp, source.Note,
			"proc %s: %d parallel program state(s) block with no applicable rule (potential deadlock)",
			proc.Name.Name, len(r.Deadlocks))
	}
	switch r.Stats.Stop {
	case pps.StopBudget:
		diags.Addf(file, proc.Name.Sp, source.Note,
			"proc %s: PPS exploration budget exceeded; degraded to conservative warnings",
			proc.Name.Name)
	case pps.StopDeadline:
		diags.Addf(file, proc.Name.Sp, source.Note,
			"proc %s: PPS exploration deadline exceeded; degraded to conservative warnings",
			proc.Name.Name)
	case pps.StopCancelled:
		diags.Addf(file, proc.Name.Sp, source.Note,
			"proc %s: PPS exploration cancelled; degraded to conservative warnings",
			proc.Name.Name)
	}
	return pr
}

func pr0HasAtomics(g *ccfg.Graph) bool {
	for _, n := range g.Nodes {
		if len(n.Atomics) > 0 {
			return true
		}
	}
	return false
}

func declLine(file *source.File, s *sym.Symbol) int {
	if s.Decl == nil {
		return 0
	}
	return file.Line(s.Decl.Span().Start)
}

func declPos(s *sym.Symbol) source.Pos {
	if s.Decl == nil {
		return source.NoPos
	}
	return s.Decl.Span().Start
}

// siteInfo accounts a procedure's call sites for the synced-scope rule:
// how many there are and how many sit lexically inside a sync block.
type siteInfo struct {
	calls  int
	synced int
}

// allSynced reports whether the procedure has call sites and every one
// is enclosed in a sync block — the condition under which its by-ref
// formals are structurally safe.
func (si *siteInfo) allSynced() bool {
	return si != nil && si.calls > 0 && si.calls == si.synced
}

// procCallSites walks every file collecting per-procedure call site
// accounting — the cross-procedure fact feeding the synced-scope rule
// of §III-A, and the bit the incremental engine folds into each unit's
// fingerprint. Single-file mode passes one file; in module mode extern
// uses resolve to the defining file's declaration, so the accounting
// keys on declarations, not names, and merges across files.
func procCallSites(files []*modgraph.File) map[*ast.ProcDecl]*siteInfo {
	sites := make(map[*ast.ProcDecl]*siteInfo)
	var info *sym.Info

	var walkStmts func(list []ast.Stmt, syncDepth int)
	var walkExpr func(e ast.Expr, syncDepth int)
	walkExpr = func(e ast.Expr, syncDepth int) {
		switch x := e.(type) {
		case *ast.CallExpr:
			if s := info.Uses[x.Fun]; s != nil && s.Proc != nil {
				si := sites[s.Proc]
				if si == nil {
					si = &siteInfo{}
					sites[s.Proc] = si
				}
				si.calls++
				if syncDepth > 0 {
					si.synced++
				}
			}
			for _, a := range x.Args {
				walkExpr(a, syncDepth)
			}
		case *ast.MethodCallExpr:
			for _, a := range x.Args {
				walkExpr(a, syncDepth)
			}
		case *ast.BinaryExpr:
			walkExpr(x.X, syncDepth)
			walkExpr(x.Y, syncDepth)
		case *ast.UnaryExpr:
			walkExpr(x.X, syncDepth)
		case *ast.RangeExpr:
			walkExpr(x.Lo, syncDepth)
			walkExpr(x.Hi, syncDepth)
		}
	}
	var walkStmt func(s ast.Stmt, syncDepth int)
	walkStmt = func(s ast.Stmt, syncDepth int) {
		switch x := s.(type) {
		case *ast.VarDecl:
			if x.Init != nil {
				walkExpr(x.Init, syncDepth)
			}
		case *ast.AssignStmt:
			walkExpr(x.Rhs, syncDepth)
		case *ast.ExprStmt:
			walkExpr(x.X, syncDepth)
		case *ast.CallStmt:
			walkExpr(x.X, syncDepth)
		case *ast.BeginStmt:
			// Tasks created inside a sync block stay within its dynamic
			// extent, so the sync depth carries into the task body.
			walkStmts(x.Body.Stmts, syncDepth)
		case *ast.SyncStmt:
			walkStmts(x.Body.Stmts, syncDepth+1)
		case *ast.IfStmt:
			walkExpr(x.Cond, syncDepth)
			walkStmts(x.Then.Stmts, syncDepth)
			if x.Else != nil {
				walkStmts(x.Else.Stmts, syncDepth)
			}
		case *ast.WhileStmt:
			walkExpr(x.Cond, syncDepth)
			walkStmts(x.Body.Stmts, syncDepth)
		case *ast.ForStmt:
			walkExpr(x.Range.Lo, syncDepth)
			walkExpr(x.Range.Hi, syncDepth)
			walkStmts(x.Body.Stmts, syncDepth)
		case *ast.ReturnStmt:
			if x.Value != nil {
				walkExpr(x.Value, syncDepth)
			}
		case *ast.BlockStmt:
			walkStmts(x.Stmts, syncDepth)
		case *ast.ProcStmt:
			walkStmts(x.Proc.Body.Stmts, 0)
		}
	}
	walkStmts = func(list []ast.Stmt, syncDepth int) {
		for _, s := range list {
			walkStmt(s, syncDepth)
		}
	}
	for _, f := range files {
		info = f.Info
		for _, p := range f.Mod.Procs {
			walkStmts(p.Body.Stmts, 0)
		}
	}
	return sites
}

// syncedRefParamsFrom implements the synced-scope list rule of §III-A:
// a by-ref formal of a procedure is structurally safe when the
// procedure has at least one call site and every call site is lexically
// enclosed in a sync block. It projects the call-site accounting onto
// the by-ref formal symbols the CCFG builder consults, using each
// procedure's defining file's resolver info (only that info knows the
// formal symbols).
func syncedRefParamsFrom(sites map[*ast.ProcDecl]*siteInfo, files []*modgraph.File) map[*sym.Symbol]bool {
	out := make(map[*sym.Symbol]bool)
	for proc, si := range sites {
		if !si.allSynced() {
			continue
		}
		for _, f := range files {
			if f.Info.ProcSyms[proc] == nil {
				continue
			}
			if scope := f.Info.ScopeFor(proc); scope != nil {
				for _, s := range scope.Symbols() {
					if s.Kind == sym.KindParam && s.ByRef {
						out[s] = true
					}
				}
			}
			break
		}
	}
	return out
}
