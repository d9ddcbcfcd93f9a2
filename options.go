package uafcheck

import (
	"context"
	"time"
)

// Option configures the context-first entry points AnalyzeContext and
// AnalyzeFilesContext. Options compose left to right; unset knobs keep
// the DefaultOptions behavior. Batch-only options (WithWorkers,
// WithFileTimeout, WithRetries) are ignored by AnalyzeContext.
type Option func(*apiConfig)

// apiConfig is the merged configuration the functional options write
// into; it wraps the v1 structs so both API generations share one
// implementation.
type apiConfig struct {
	opts  Options
	bopts BatchOptions
	// unitCacheEntries bounds NewAnalyzer's per-procedure memo store;
	// ignored by the one-shot entry points.
	unitCacheEntries int
}

// WithPrune toggles the paper's CCFG pruning rules A-D (default on).
func WithPrune(on bool) Option {
	return func(c *apiConfig) { c.opts.Prune = on }
}

// WithMaxStates bounds the PPS exploration (0 = library default). When
// the budget is exhausted the analysis degrades conservatively instead
// of truncating.
func WithMaxStates(n int) Option {
	return func(c *apiConfig) { c.opts.MaxStates = n }
}

// WithTrace records the PPS tables on Report.PPSTraces.
func WithTrace(on bool) Option {
	return func(c *apiConfig) { c.opts.Trace = on }
}

// WithMergeDisabled turns off the identical-(ASN, state-table) merge
// optimization of §III-C — exposed for ablation benchmarks.
func WithMergeDisabled(on bool) Option {
	return func(c *apiConfig) { c.opts.DisableMerge = on }
}

// WithAtomicsModel enables the atomics extension (non-blocking fills,
// SINGLE-READ-like waitFor).
func WithAtomicsModel(on bool) Option {
	return func(c *apiConfig) { c.opts.ModelAtomics = on }
}

// WithAtomicsCounting enables the saturating-counter refinement of the
// atomics extension (implies the atomics model).
func WithAtomicsCounting(on bool) Option {
	return func(c *apiConfig) { c.opts.CountAtomics = on }
}

// WithMetricsSinks attaches telemetry sinks; each receives one Metrics
// snapshot per analyzed file.
func WithMetricsSinks(sinks ...MetricsSink) Option {
	return func(c *apiConfig) { c.opts.MetricsSinks = append(c.opts.MetricsSinks, sinks...) }
}

// WithDeadline bounds one analysis's wall clock (0 = none); on expiry
// the analysis degrades conservatively.
func WithDeadline(d time.Duration) Option {
	return func(c *apiConfig) { c.opts.Deadline = d }
}

// WithParallelism sets the number of concurrent PPS exploration workers
// per analyzed procedure; see Options.Parallelism for the defaults and
// the determinism guarantee.
func WithParallelism(n int) Option {
	return func(c *apiConfig) { c.opts.Parallelism = n }
}

// WithCache attaches a content-addressed report cache; see NewCache.
func WithCache(cc *Cache) Option {
	return func(c *apiConfig) { c.opts.Cache = cc }
}

// WithInlineLowering has no effect: nested-procedure calls are always
// inlined per call site, which is what this option used to select.
//
// Deprecated: the alternative lowering it switched away from is gone,
// and the two never differed in any result.
func WithInlineLowering(on bool) Option {
	return func(*apiConfig) {}
}

// WithTracing records a hierarchical span tree for each analysis run
// (frontend, per-procedure lowering, PPS waves, cache consults) on
// Report.Metrics.Trace. When the caller's context already carries an
// obs trace — e.g. inside a traced server request — spans attach to
// that ambient trace instead and the report carries none. Tracing
// never changes analysis results or cache keys.
func WithTracing(on bool) Option {
	return func(c *apiConfig) { c.opts.Tracing = on }
}

// WithWorkers sets the batch worker-pool size (0 = GOMAXPROCS). Batch
// runs only.
func WithWorkers(n int) Option {
	return func(c *apiConfig) { c.bopts.Workers = n }
}

// WithFileTimeout bounds each per-file attempt's wall clock. Batch runs
// only.
func WithFileTimeout(d time.Duration) Option {
	return func(c *apiConfig) { c.bopts.FileTimeout = d }
}

// WithRetries grants extra attempts after a per-file deadline hit, each
// with a smaller state budget. Batch runs only.
func WithRetries(n int) Option {
	return func(c *apiConfig) { c.bopts.Retries = n }
}

// WithUnitCacheEntries bounds the per-procedure memo store of a
// NewAnalyzer handle (<= 0 means the library default of 1024 units).
// One-shot entry points ignore it — incrementality needs a handle that
// outlives the call.
func WithUnitCacheEntries(n int) Option {
	return func(c *apiConfig) { c.unitCacheEntries = n }
}

// WithAnalyzer routes a batch's per-file analysis through the handle's
// incremental engine: units memoized by earlier AnalyzeDelta calls (or
// earlier batches) are reused, and fresh units are memoized for later
// calls. The analysis options still come from the batch call, not from
// the handle — the handle contributes only its memo store, which is
// safe to share across differing options because every option that can
// change a result participates in the unit fingerprint. Batch runs
// only.
func WithAnalyzer(a *Analyzer) Option {
	return func(c *apiConfig) {
		if a != nil {
			c.bopts.analyze = a.analyzeForBatch
		}
	}
}

// WithOnFile streams per-file results: fn receives each FileReport as
// soon as it completes (cache hits first, then worker-pool completions
// in finish order). fn runs on worker goroutines and may be called
// concurrently; it must synchronize internally. Batch runs only.
func WithOnFile(fn func(i int, fr FileReport)) Option {
	return func(c *apiConfig) { c.bopts.OnFile = fn }
}

// AnalyzeContext runs the static analysis under ctx. It is the primary
// single-shot entry point of the v2 API (the struct-options
// AnalyzeWithOptions form is a deprecated compatibility shim):
//
//	cache := uafcheck.NewCache(uafcheck.CacheConfig{})
//	report, err := uafcheck.AnalyzeContext(ctx, "prog.chpl", src,
//	    uafcheck.WithParallelism(4),
//	    uafcheck.WithCache(cache))
//
// Cancellation and deadlines on ctx degrade the analysis conservatively
// (Report.Degraded) rather than aborting it.
func AnalyzeContext(ctx context.Context, filename, src string, options ...Option) (*Report, error) {
	cfg := apiConfig{opts: DefaultOptions()}
	for _, o := range options {
		o(&cfg)
	}
	return analyzeWith(ctx, filename, src, cfg.opts, nil)
}

// AnalyzeFilesContext analyzes many files under ctx — the context-first
// form of AnalyzeFiles. Cancelling ctx degrades unfinished files to
// conservative results instead of dropping them.
func AnalyzeFilesContext(ctx context.Context, files []FileInput, options ...Option) *BatchReport {
	cfg := apiConfig{opts: DefaultOptions()}
	for _, o := range options {
		o(&cfg)
	}
	cfg.bopts.Context = ctx
	return AnalyzeFiles(files, cfg.opts, cfg.bopts)
}
