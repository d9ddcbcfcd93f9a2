package analysis

import (
	"time"

	"uafcheck/internal/ast"
	"uafcheck/internal/cache"
	"uafcheck/internal/ir"
	"uafcheck/internal/modgraph"
	"uafcheck/internal/obs"
	"uafcheck/internal/pps"
	"uafcheck/internal/source"
	"uafcheck/internal/sym"
)

// driver runs the per-unit pipeline over the analysis roots a front end
// has parsed and resolved: memo lookup, lower → CCFG → PPS with crash
// isolation, pipeline counters and memo store. The single-file and
// module front ends differ only in the facts they put here.
type driver struct {
	opts Options
	// units is the memo store; nil analyzes every unit afresh.
	units *Units
	// optsFP is opts.Fingerprint(), rendered once per run for the memo
	// keys ("" without a store).
	optsFP string
	// sites and synced are the call-site facts of the synced-scope rule
	// (§III-A).
	sites  map[*ast.ProcDecl]*siteInfo
	synced map[*sym.Symbol]bool
	low    ir.LowerOptions
	// graph is the linked module; nil in single-file mode.
	graph *modgraph.Graph
	stats IncrStats
}

// newDriver decides the memo bypass for every front end: KeepGraphs and
// PPS-trace runs retain graphs and tables the position-relative memo
// form cannot carry, so they analyze every unit afresh.
func newDriver(opts Options, units *Units) driver {
	if opts.KeepGraphs || opts.PPS.Trace {
		units = nil
	}
	d := driver{opts: opts, units: units}
	if units != nil {
		d.optsFP = opts.Fingerprint()
	}
	return d
}

// roots analyzes the analysis roots of one resolved file into res, in
// declaration order. A root is an outermost procedure containing begin
// tasks (partial inter-procedural analysis, §III); in module mode also
// one whose lowered body inherits an escaping task from a callee.
func (d *driver) roots(file *source.File, res *Result) {
	configsFP := ""
	if d.units != nil {
		configsFP = configsFingerprint(file, res.Module)
	}
	beginPrefix := 0
	for _, proc := range res.Module.Procs {
		root := ast.HasBegin(proc)
		if d.graph != nil {
			root = d.graph.NeedsAnalysis(proc)
		}
		if !root {
			continue
		}
		d.unit(file, res, proc, configsFP, beginPrefix)
		if d.units != nil {
			beginPrefix += ast.CountBegins(proc)
		}
	}
}

// unit replays one root from the memo store, or analyzes it and stores
// the complete result. beginPrefix counts the begin tasks of the file's
// earlier roots; it and configsFP matter only with a memo store.
func (d *driver) unit(file *source.File, res *Result, proc *ast.ProcDecl, configsFP string, beginPrefix int) {
	var key cache.Key
	var pr *ProcResult
	diags := res.Diags
	if d.units != nil {
		calleesFP, refs := "", ""
		if d.graph != nil {
			calleesFP, refs = moduleCalleesFP(d.graph, proc), d.graph.Refs(proc)
		} else {
			refs = modgraph.ModuleRefs(proc, res.Info)
		}
		key = unitKey(d.units.salt, file.Name, d.optsFP, file, proc,
			d.sites[proc].allSynced(), configsFP, refs, calleesFP)
		lookupStart := time.Now()
		ur, ok := d.units.c.Get(key)
		d.opts.Obs.Observe(obs.HistUnitLookupNS, time.Since(lookupStart).Nanoseconds())
		if ok && ur != nil {
			d.stats.UnitHits++
			d.opts.Obs.Add(obs.CtrUnitHits, 1)
			_, usp := obs.StartSpan(d.opts.Ctx, "unit-hit")
			usp.SetAttr("proc", proc.Name.Name)
			pr = ur.materialize(file, proc, beginPrefix, diags)
			usp.End()
		} else {
			d.stats.UnitMisses++
			d.opts.Obs.Add(obs.CtrUnitMisses, 1)
			// A private collector gives captureUnit exactly the
			// diagnostics this unit emits.
			diags = &source.Diagnostics{}
		}
	}
	if pr == nil {
		var crash *Crash
		pr, crash = analyzeProcSafe(res.Info, proc, d.synced, d.opts, diags, d.low)
		if diags != res.Diags {
			for _, dg := range diags.All() {
				res.Diags.Add(dg)
			}
		}
		if crash != nil {
			res.Crashes = append(res.Crashes, *crash)
			res.Diags.Addf(file, proc.Name.Sp, source.Note,
				"proc %s: internal analysis panic in phase %s (recovered): %s",
				proc.Name.Name, crash.Phase, crash.Err)
			return
		}
		// Only complete units are memoized: a degraded unit's warning set
		// depends on this run's budget/deadline race.
		if d.units != nil && pr.PPSStats.Stop == pps.StopNone {
			d.units.c.Put(key, captureUnit(file, proc, beginPrefix, pr, diags))
		}
	}
	res.Procs = append(res.Procs, pr)
	d.opts.Obs.Add(obs.CtrProcsAnalyzed, 1)
	d.opts.Obs.Add(obs.CtrWarnings, int64(len(pr.Warnings)))
}
