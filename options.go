package uafcheck

import (
	"context"
	"time"

	"uafcheck/internal/analysis"
	"uafcheck/internal/pps"
)

// Option configures one analysis call (AnalyzeContext,
// AnalyzeFilesContext, AnalyzeModuleContext, Analyzer.AnalyzeDelta,
// Analyzer.AnalyzeModuleDelta, Repair). Options compose left to right;
// unset knobs keep the defaults (pruning on, everything else off or
// library-sized). WithDeadline is the one per-file wall clock for every
// entry point; on the batch driver (AnalyzeFilesContext) it bounds each
// attempt. Batch options (WithWorkers, WithRetries, WithOnFile) apply
// to AnalyzeFilesContext only and are ignored elsewhere.
type Option func(*config)

// config is the one configuration every entry point reads; the With*
// options write its fields and newConfig applies them.
type config struct {
	prune        bool
	maxStates    int
	trace        bool
	disableMerge bool
	modelAtomics bool
	countAtomics bool
	parallelism  int
	tracing      bool
	cache        *Cache
	deadline     time.Duration

	// Batch runs only.
	workers int
	retries int
	onFile  func(i int, fr FileReport)
	// analyzer, set by the handle's own methods, lends its memo store
	// to the run and counts it.
	analyzer *Analyzer
}

// defaultConfig is the configuration of a call without options.
var defaultConfig = config{prune: true}

// newConfig applies options over the defaults. A call without options
// allocates nothing; with options, cfg escapes to the heap because each
// option takes its address.
func newConfig(options ...Option) config {
	if len(options) == 0 {
		return defaultConfig
	}
	cfg := defaultConfig
	for _, o := range options {
		o(&cfg)
	}
	return cfg
}

// internal maps the configuration onto the analysis layer's options.
func (c *config) internal() analysis.Options {
	return analysis.Options{
		Prune:        c.prune,
		ModelAtomics: c.modelAtomics || c.countAtomics,
		CountAtomics: c.countAtomics,
		RecordTrace:  c.tracing,
		PPS: pps.Options{
			MaxStates:    c.maxStates,
			Trace:        c.trace,
			DisableMerge: c.disableMerge,
			Parallelism:  c.parallelism,
		},
	}
}

// WithPrune toggles the paper's CCFG pruning rules A-D (default on).
func WithPrune(on bool) Option {
	return func(c *config) { c.prune = on }
}

// WithMaxStates bounds the PPS exploration (0 = library default). When
// the budget is exhausted the analysis degrades conservatively instead
// of truncating.
func WithMaxStates(n int) Option {
	return func(c *config) { c.maxStates = n }
}

// WithTrace records the PPS tables on Report.PPSTraces.
func WithTrace(on bool) Option {
	return func(c *config) { c.trace = on }
}

// WithMergeDisabled turns off the identical-(ASN, state-table) merge
// optimization of §III-C — exposed for ablation benchmarks.
func WithMergeDisabled(on bool) Option {
	return func(c *config) { c.disableMerge = on }
}

// WithAtomicsModel enables the paper's future-work atomics extension:
// atomic writes become non-blocking fill events and waitFor becomes a
// SINGLE-READ-like wait (§IV-A sketch). With it on, atomic-handshake
// programs are proven safe instead of producing false positives.
func WithAtomicsModel(on bool) Option {
	return func(c *config) { c.modelAtomics = on }
}

// WithAtomicsCounting enables the saturating-counter refinement of the
// atomics extension (implies the atomics model): atomic variables used
// only monotonically become counters, so counting protocols (n
// fetchAdds before a waitFor(n)) verify as well.
func WithAtomicsCounting(on bool) Option {
	return func(c *config) { c.countAtomics = on }
}

// WithDeadline bounds one analysis's wall clock (0 = none): the call's
// for AnalyzeContext, AnalyzeModuleContext and Repair, each attempt's
// for a batch file. When it fires, the analysis degrades instead of
// truncating: every access not yet proven safe is reported as a
// conservative warning and Report.Degraded records the reason.
func WithDeadline(d time.Duration) Option {
	return func(c *config) { c.deadline = d }
}

// WithParallelism sets the number of concurrent PPS exploration workers
// per analyzed procedure. 0 means GOMAXPROCS for single-file calls;
// batch runs default to 1 instead (file-level workers already saturate
// the machine — total concurrency ≈ workers × parallelism). Results are
// identical for every value: exploration proceeds in deterministic
// bulk-synchronous waves, so the warning set, stats and traces never
// depend on the worker count.
func WithParallelism(n int) Option {
	return func(c *config) { c.parallelism = n }
}

// WithCache attaches a content-addressed report cache (source text +
// effective options + tool Version); see NewCache. Hits return a
// defensive clone and skip the pipeline entirely; degraded results are
// never cached.
func WithCache(cc *Cache) Option {
	return func(c *config) { c.cache = cc }
}

// WithTracing records a hierarchical span tree for each analysis run
// (frontend, per-procedure lowering, PPS waves, cache consults) on
// Report.Metrics.Trace. When the caller's context already carries an
// obs trace — e.g. inside a traced server request — spans attach to
// that ambient trace instead and the report carries none. Tracing
// never changes analysis results or cache keys.
func WithTracing(on bool) Option {
	return func(c *config) { c.tracing = on }
}

// WithWorkers sets the batch worker-pool size (0 = GOMAXPROCS). A pool
// of more than one worker starts the files with the longest sources
// first; one worker runs them in input order. Batch runs only.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithRetries grants extra attempts after a WithDeadline hit, each
// with a 4×-smaller state budget, converging on a deterministic
// budget-degraded result instead of a flaky timeout. Batch runs only.
func WithRetries(n int) Option {
	return func(c *config) { c.retries = n }
}

// WithOnFile streams per-file results: fn receives each FileReport as
// soon as its last attempt completes, in finish order (cache hits
// included). fn runs on worker goroutines and may be called
// concurrently; it must synchronize internally. Batch runs only.
func WithOnFile(fn func(i int, fr FileReport)) Option {
	return func(c *config) { c.onFile = fn }
}

// AnalyzeContext runs the static analysis under ctx. It is the
// single-file entry point:
//
//	cache := uafcheck.NewCache(uafcheck.CacheConfig{})
//	report, err := uafcheck.AnalyzeContext(ctx, "prog.chpl", src,
//	    uafcheck.WithParallelism(4),
//	    uafcheck.WithCache(cache))
//
// Cancellation and deadlines on ctx degrade the analysis conservatively
// (Report.Degraded) rather than aborting it. The call never panics: a
// crash anywhere in the pipeline is recovered and reported through
// Report.Degraded (reason DegradePanic).
func AnalyzeContext(ctx context.Context, filename, src string, options ...Option) (*Report, error) {
	return analyzeWith(ctx, filename, src, newConfig(options...))
}
