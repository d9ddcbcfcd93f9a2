// Module mode: whole-module interprocedural analysis over the
// cross-file call graph.
//
// Every file of the module is parsed and resolved against a shared
// linker scope (internal/modgraph), per-procedure summaries are
// computed bottom-up with a fixpoint over call-graph cycles, and each
// analysis root is lowered with the callee summaries spliced in at its
// opaque call sites. The incremental variant memoizes per unit exactly
// like single-file mode, with one extra key component: the identities
// and summary fingerprints of the unit's direct module-level callees.
// That component is what makes memo invalidation propagate along
// call-graph edges — editing a callee re-keys exactly its (transitive)
// callers whose composed summaries changed, and nothing else.
package analysis

import (
	"slices"
	"strings"

	"uafcheck/internal/ast"
	"uafcheck/internal/ir"
	"uafcheck/internal/modgraph"
	"uafcheck/internal/obs"
	"uafcheck/internal/parser"
	"uafcheck/internal/source"
)

// ModuleFile is one input file of a module analysis.
type ModuleFile struct {
	Name string
	Src  string
}

// ModuleResult is the whole-module analysis outcome: one Result per
// file, in input order, plus the linked graph.
type ModuleResult struct {
	Files []*Result
	// Graph is the linked module; its summaries are computed only when
	// every file resolved without errors.
	Graph *modgraph.Graph
	// Unresolved lists calls that named no procedure in any file; the
	// public layer converts a non-empty list into ErrUnresolvedCall.
	Unresolved []modgraph.Unresolved
	// FrontendFailed is set when any file had parse or resolution
	// errors; the concurrency pass was skipped module-wide.
	FrontendFailed bool
}

// AnalyzeModule analyzes all files of one module together. Its roots
// go through the same per-unit driver as single-file mode: a nil units
// store analyzes every root afresh, and a store is consulted per unit.
// Both assemble the same Results, so a one-shot run is byte-identical
// to a warm incremental run by construction. A store also lends its
// parse store, which skips the parser for a file whose name and text
// match the store's last snapshot, and its summary memo.
func AnalyzeModule(files []ModuleFile, opts Options, units *Units) (*ModuleResult, IncrStats) {
	mres := &ModuleResult{}
	mfiles := make([]*modgraph.File, len(files))
	results := make([]*Result, len(files))
	var prev, next map[string]parsedFile
	if units != nil {
		prev = units.lastParsed()
		next = make(map[string]parsedFile, len(files))
	}
	for i, in := range files {
		pf, ok := prev[in.Name]
		if !ok || pf.src.Content != in.Src {
			pf = parseFile(in, opts)
		}
		if next != nil {
			next[in.Name] = pf
		}
		diags := &source.Diagnostics{}
		for _, d := range pf.diags {
			diags.Add(d)
		}
		mfiles[i] = &modgraph.File{Name: in.Name, Src: pf.src, Mod: pf.mod, Diags: diags}
		results[i] = &Result{Module: pf.mod, Diags: diags}
		if diags.HasErrors() {
			mres.FrontendFailed = true
		}
	}
	if units != nil {
		units.keepParsed(next)
	}
	mres.Files = results
	if mres.FrontendFailed {
		// Frontend errors: skip linking, matching the single-file
		// pipeline which stops before its analysis phases.
		return mres, IncrStats{}
	}
	_, endResolve := obs.StartPhase(opts.Ctx, opts.Obs, obs.PhaseResolve)
	g := modgraph.Resolve(mfiles)
	endResolve()
	mres.Graph = g
	mres.Unresolved = g.Unresolved
	for i, mf := range mfiles {
		results[i].Info = mf.Info
		if mf.Diags.HasErrors() {
			mres.FrontendFailed = true
		}
	}
	if mres.FrontendFailed {
		return mres, IncrStats{}
	}
	_, endSummaries := obs.StartPhase(opts.Ctx, opts.Obs, obs.PhaseSummaries)
	var memo *modgraph.Memo
	if units != nil {
		memo = &units.summaries
	}
	g.Summarize(memo)
	endSummaries()

	d := newDriver(opts, units)
	d.graph = g
	// Cross-file synced-scope rule (§III-A): a procedure's by-ref
	// formals are structurally safe when every call site, in any file
	// of the module, sits inside a sync block.
	d.sites = procCallSites(mfiles)
	d.synced = syncedRefParamsFrom(d.sites, mfiles)
	d.low = ir.LowerOptions{Effects: g.Effects}
	for i, mf := range mfiles {
		d.roots(mf.Src, results[i])
	}
	return mres, d.stats
}

// parseFile parses one module file for the parse store.
func parseFile(in ModuleFile, opts Options) parsedFile {
	f := source.NewFile(in.Name, in.Src)
	diags := &source.Diagnostics{}
	_, endParse := obs.StartPhase(opts.Ctx, opts.Obs, obs.PhaseParse)
	mod := parser.Parse(f, diags)
	endParse()
	return parsedFile{src: f, mod: mod, diags: slices.Clone(diags.All())}
}

// moduleCalleesFP renders the unit's direct-callee view for the memo
// key: one line per distinct module-level callee, identity plus
// converged summary fingerprint, in deterministic order. Both come
// from what the link already computed.
func moduleCalleesFP(g *modgraph.Graph, proc *ast.ProcDecl) string {
	callees := g.DirectCallees(g.Files[g.DeclFile[proc]], proc)
	if len(callees) == 0 {
		return "module"
	}
	var b strings.Builder
	b.WriteString("module")
	for _, d := range callees {
		b.WriteByte('\n')
		b.WriteString(g.SummaryFingerprint(d))
	}
	return b.String()
}
