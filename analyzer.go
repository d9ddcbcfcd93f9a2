package uafcheck

import (
	"context"
	"sync/atomic"

	"uafcheck/internal/analysis"
)

// Analyzer is a long-lived analysis handle: it owns a per-procedure
// memo store (and, when configured, a report cache) that persist across
// calls, so re-analyzing a file after an edit only pays for the
// procedures the edit touched. Module calls also keep the last module
// snapshot's parsed files and procedure summaries, bounded by the
// module's size (see AnalyzeModuleDelta). It is the home for
// editor/daemon workloads — uafcheck -watch and the uafserve /v1/delta
// endpoint are both built on it.
//
// The handle is safe for concurrent use, and a call abandoned
// mid-analysis (see internal/batch's Attempt) blocks no later call: the
// memo store locks only around lookups and stores, and only complete
// units are stored. AnalyzeDelta and AnalyzeModuleDelta use the options
// fixed at construction; WithAnalyzer lends the same store to
// AnalyzeContext, AnalyzeFilesContext and AnalyzeModuleContext under
// the call's own options. Reports are byte-identical — through the
// internal/wire canonical encoding — to what a from-scratch run with
// the same options produces; see docs/INCREMENTAL.md for the
// fingerprinting and invalidation rules.
type Analyzer struct {
	cfg   config
	units *analysis.Units

	files      atomic.Int64
	unitHits   atomic.Int64
	unitMisses atomic.Int64
}

// AnalyzerStats is a snapshot of an Analyzer's incremental traffic.
type AnalyzerStats struct {
	// Files counts the files the handle analyzed: one per single-file
	// call (AnalyzeDelta, or AnalyzeContext with WithAnalyzer), one per
	// batch file attempt run through WithAnalyzer, and every file of
	// each module call.
	Files int64
	// UnitHits / UnitMisses count analysis units (top-level procedures
	// containing begin tasks) served from the memo store vs recomputed.
	UnitHits   int64
	UnitMisses int64
	// Units is the number of memoized units currently held.
	Units int
}

// NewAnalyzer creates an analysis handle. It accepts the same
// functional options as AnalyzeContext (WithPrune, WithMaxStates,
// WithAtomicsModel, WithCache, ...) plus WithUnitCacheEntries to bound
// the per-procedure memo store; they are the options of AnalyzeDelta
// and AnalyzeModuleDelta.
func NewAnalyzer(options ...Option) *Analyzer {
	a := &Analyzer{cfg: newConfig(options...)}
	a.cfg.analyzer = a
	a.units = analysis.NewUnits(Version, a.cfg.unitCacheEntries)
	return a
}

// Stats returns the handle's incremental traffic counters.
func (a *Analyzer) Stats() AnalyzerStats {
	return AnalyzerStats{
		Files:      a.files.Load(),
		UnitHits:   a.unitHits.Load(),
		UnitMisses: a.unitMisses.Load(),
		Units:      a.units.Len(),
	}
}

// AnalyzeDelta analyzes one file reusing every memoized unit whose
// fingerprint still matches, and memoizing the units it had to compute.
// The first call over a file is a warm-up (every unit misses); after a
// single-procedure edit, subsequent calls recompute only that
// procedure. The returned report is byte-identical (canonical wire
// encoding) to AnalyzeContext with this handle's options.
//
// Frontend failures return an error matching ErrParse; resource
// degradation surfaces through Report.Err as usual. Trace mode bypasses
// the memo store (retained graphs are not serializable) and runs the
// full pipeline. It is AnalyzeContext with the handle's options plus
// WithAnalyzer(a).
func (a *Analyzer) AnalyzeDelta(ctx context.Context, filename, src string) (*Report, error) {
	return analyzeWith(ctx, filename, src, a.cfg)
}

// analyzeSource runs the single-file pipeline through the handle's memo
// store.
func (a *Analyzer) analyzeSource(name, src string, in analysis.Options) *analysis.Result {
	res, stats := analysis.AnalyzeSourceIncremental(name, src, in, a.units)
	a.count(stats)
	return res
}

// count adds one run's unit traffic to the handle's counters.
func (a *Analyzer) count(stats analysis.IncrStats) {
	a.unitHits.Add(int64(stats.UnitHits))
	a.unitMisses.Add(int64(stats.UnitMisses))
}
