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
// units are stored. The handle holds no options: AnalyzeDelta and
// AnalyzeModuleDelta take each call's, and one store serves calls under
// differing option sets because every option that can change a result
// is part of the unit fingerprint. Reports are byte-identical — through
// the internal/wire canonical encoding — to AnalyzeContext or
// AnalyzeModuleContext with the same options; see docs/INCREMENTAL.md
// for the fingerprinting and invalidation rules.
type Analyzer struct {
	units *analysis.Units

	files      atomic.Int64
	unitHits   atomic.Int64
	unitMisses atomic.Int64
}

// AnalyzerStats is a snapshot of an Analyzer's incremental traffic.
type AnalyzerStats struct {
	// Files counts the files the handle analyzed: one per AnalyzeDelta
	// call and every file of each AnalyzeModuleDelta call.
	Files int64
	// UnitHits / UnitMisses count analysis units (top-level procedures
	// containing begin tasks) served from the memo store vs recomputed.
	UnitHits   int64
	UnitMisses int64
	// Units is the number of memoized units currently held.
	Units int
}

// NewAnalyzer creates an analysis handle with an empty memo store of
// 1024 units.
func NewAnalyzer() *Analyzer {
	return &Analyzer{units: analysis.NewUnits(Version)}
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
// encoding) to AnalyzeContext with the same options, which it takes.
//
// Frontend failures return an error matching ErrParse; resource
// degradation surfaces through Report.Err as usual. Trace mode bypasses
// the memo store (retained graphs are not serializable) and runs the
// full pipeline.
func (a *Analyzer) AnalyzeDelta(ctx context.Context, filename, src string, options ...Option) (*Report, error) {
	return analyzeWith(ctx, filename, src, a.config(options))
}

// config is one call's configuration with the handle lending its store.
func (a *Analyzer) config(options []Option) config {
	cfg := newConfig(options...)
	cfg.analyzer = a
	return cfg
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
