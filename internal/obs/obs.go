// Package obs is the pipeline's telemetry layer: span-based phase
// tracing, typed counters and gauges, and pluggable sinks.
//
// Every stage of the analysis pipeline (parse, resolve, lower, CCFG
// build, prune, PPS exploration, dynamic oracle) opens a Span on a
// Recorder and bumps counters for the state-space work it performs. The
// Recorder is nil-safe: a nil *Recorder turns every call into a no-op,
// so library code records unconditionally and pays nothing when
// telemetry is off. Counters that live on hot loops (one bump per PPS
// transition) are accumulated in plain integers by the caller and
// flushed into the Recorder once per phase, so the exploration loop
// itself never touches a map or a mutex.
//
// A Snapshot of a Recorder, or the state Finish hands over at the end
// of a run, is a Metrics value — a plain, serializable struct — which
// the sinks render: TextSink for humans, JSONLSink as a
// JSON-lines trace file, PromSink in Prometheus text exposition format.
package obs

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Phase names used by the pipeline spans.
const (
	PhaseParse     = "parse"
	PhaseResolve   = "resolve"
	PhaseSummaries = "summaries" // module mode's call-graph summary fixpoint
	PhaseLower     = "lower"
	PhaseCCFG      = "ccfg-build"
	PhasePrune     = "prune"
	PhaseExplore   = "pps-explore"
	PhaseOracle    = "oracle"
	PhaseBatch     = "batch"
)

// Counter names. The dotted names are stable identifiers; the Prometheus
// sink rewrites dots to underscores.
const (
	// CCFG construction.
	CtrCCFGNodes         = "ccfg.nodes"
	CtrCCFGTasks         = "ccfg.tasks"
	CtrCCFGSyncVars      = "ccfg.sync_vars"
	CtrCCFGAtomicOps     = "ccfg.atomic_ops"
	CtrTrackedAccesses   = "ccfg.tracked_accesses"
	CtrProtectedAccesses = "ccfg.protected_accesses"

	// Pruning rules A-D (§III-A).
	CtrPrunedTasks = "prune.tasks"
	CtrPruneRuleA  = "prune.rule_a"
	CtrPruneRuleB  = "prune.rule_b"
	CtrPruneRuleC  = "prune.rule_c"
	CtrPruneRuleD  = "prune.rule_d"

	// PPS exploration (§III-B/C).
	CtrStatesCreated   = "pps.states_created"
	CtrStatesMerged    = "pps.states_merged"
	CtrStatesForked    = "pps.states_forked"
	CtrStatesProcessed = "pps.states_processed"
	CtrSinkStates      = "pps.sinks"
	CtrDeadlockStates  = "pps.deadlocks"
	// CtrPPSWaves counts bulk-synchronous frontier rounds of the wave
	// explorer. Deliberately no worker-count gauge: every recorded pps.*
	// value is independent of Options.Parallelism, so metrics stay
	// byte-comparable across machines and worker counts.
	CtrPPSWaves = "pps.waves"

	// Sync transitions by rule kind (paper rules 1-3 + atomics extension).
	CtrTransSingleRead = "pps.trans_single_read"
	CtrTransRead       = "pps.trans_read"
	CtrTransWrite      = "pps.trans_write"
	CtrTransAtomicFill = "pps.trans_atomic_fill"
	CtrTransAtomicWait = "pps.trans_atomic_wait"

	// Whole-pass accounting.
	CtrProcsAnalyzed = "analysis.procs"
	CtrWarnings      = "analysis.warnings"

	// Dynamic oracle.
	CtrOracleSchedules = "oracle.schedules"
	CtrOracleSteps     = "oracle.steps"
	CtrOracleDeadlocks = "oracle.deadlocks"
	CtrOracleUAFSites  = "oracle.uaf_sites"

	// Batch driver (internal/batch): per-file outcome classes and
	// recovery work.
	CtrBatchFiles    = "batch.files"
	CtrBatchOK       = "batch.ok"
	CtrBatchDegraded = "batch.degraded"
	CtrBatchCrashed  = "batch.crashed"
	CtrBatchTimedOut = "batch.timed_out"
	CtrBatchErrors   = "batch.errors"
	CtrBatchRetries  = "batch.retries"
	CtrBatchWarnings = "batch.warnings"

	// Content-addressed report cache (internal/cache): consult outcomes
	// and store traffic, recorded by the public uafcheck entry points.
	CtrCacheHits     = "cache.hits"
	CtrCacheMisses   = "cache.misses"
	CtrCacheStores   = "cache.stores"
	CtrCacheDiskHits = "cache.disk_hits"

	// Analysis-as-a-service daemon (internal/server): request traffic,
	// admission-control rejections, and singleflight deduplication.
	CtrServerRequests   = "server.requests"
	CtrServerAnalyses   = "server.analyses"
	CtrServerRejects    = "server.rejects"
	CtrServerDedupHits  = "server.dedup_hits"
	CtrServerBatchFiles = "server.batch_files"
	// CtrServerDeprecated counts requests arriving on unversioned route
	// aliases (pre-/v1/ paths kept for compatibility); a deprecation
	// signal for operators before the aliases are removed.
	CtrServerDeprecated = "server.deprecated_requests"
	// CtrServerDeltaFiles counts files analyzed through /v1/delta.
	CtrServerDeltaFiles = "server.delta_files"
	// CtrServerRepairs counts repair attempts served by /v1/repair
	// (leaders only; refusals included — the attempt is the unit).
	CtrServerRepairs = "server.repairs"

	// Incremental per-procedure engine (internal/analysis incremental
	// mode): memoized analysis units served from the unit cache vs
	// recomputed from scratch.
	CtrUnitHits   = "incr.unit_hits"
	CtrUnitMisses = "incr.unit_misses"

	// Watch service (internal/watch) poll loop: polls performed, source
	// files whose content hash changed between polls, files that
	// disappeared between polls (warnings dropped), analyses the
	// watchdog abandoned as hung, and analyzer restarts it performed.
	CtrWatchPolls     = "watch.polls"
	CtrWatchChanged   = "watch.changed_files"
	CtrWatchDeleted   = "watch.deleted_files"
	CtrWatchAbandoned = "watch.abandoned"
	CtrWatchRestarts  = "watch.restarts"
)

// Gauge names.
const (
	GaugePeakFrontier = "pps.peak_frontier"
	// Live load gauges of the uafserve daemon: requests currently being
	// analyzed and requests waiting in the admission queue, sampled at
	// /metrics scrape time.
	GaugeServerInflight   = "server.inflight"
	GaugeServerQueueDepth = "server.queue_depth"
	// GaugeServerAnalyzerPool is the number of per-option-fingerprint
	// incremental Analyzers currently alive in the /v1/delta pool.
	GaugeServerAnalyzerPool = "server.analyzer_pool"
	// Disk-cache health gauges, sampled from cache stats at /metrics
	// scrape time: I/O failures, corrupt entries quarantined, and async
	// writes dropped on a full queue.
	GaugeCacheDiskErrors    = "cache.disk_errors"
	GaugeCacheQuarantined   = "cache.quarantined"
	GaugeCacheDroppedWrites = "cache.dropped_writes"
	// Watch-service watchdog gauges: supervision state (0 healthy,
	// 1 degraded, 2 wedged) and files currently tracked.
	GaugeWatchState = "watch.state"
	GaugeWatchFiles = "watch.files"
)

// Span is one timed phase execution. Start is the offset from the
// Recorder's creation, so spans order and nest naturally.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
}

// Metrics is a plain snapshot of a Recorder: what the sinks render and
// what the public API attaches to reports.
type Metrics struct {
	Spans    []Span           `json:"spans,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	// Hists holds fixed-bucket log2 histograms keyed by
	// "family|label=value,..." (see HistKey). Families ending in "_ns"
	// are wall-clock and nondeterministic; all others are
	// schedule-independent.
	Hists map[string]Histogram `json:"hists,omitempty"`
	// Trace is the span tree of the run when request tracing was on —
	// hierarchical TraceSpans, unlike the flat aggregate Spans above.
	Trace []TraceSpan `json:"trace,omitempty"`
}

// Counter returns the named counter, or 0.
func (m Metrics) Counter(name string) int64 { return m.Counters[name] }

// Gauge returns the named gauge, or 0.
func (m Metrics) Gauge(name string) int64 { return m.Gauges[name] }

// PhaseTotal sums the durations of every span with the given name.
func (m Metrics) PhaseTotal(name string) time.Duration {
	var d time.Duration
	for _, s := range m.Spans {
		if s.Name == name {
			d += s.Dur
		}
	}
	return d
}

// CounterNames returns the counter names in sorted order.
func (m Metrics) CounterNames() []string {
	names := make([]string, 0, len(m.Counters))
	for n := range m.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GaugeNames returns the gauge names in sorted order.
func (m Metrics) GaugeNames() []string {
	names := make([]string, 0, len(m.Gauges))
	for n := range m.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// phaseAgg is one aggregated span line of FormatText.
type phaseAgg struct {
	name  string
	count int
	total time.Duration
	first time.Duration
}

// aggregateSpans folds spans by name, ordered by first start.
func (m Metrics) aggregateSpans() []phaseAgg {
	idx := make(map[string]int)
	var out []phaseAgg
	for _, s := range m.Spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, phaseAgg{name: s.Name, first: s.Start})
		}
		out[i].count++
		out[i].total += s.Dur
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].first < out[j].first })
	return out
}

// Merge folds other into m: spans and trace spans are concatenated,
// counters summed, gauges kept at their maximum, histograms summed
// bucket-wise. Counter, gauge and histogram merging is commutative and
// associative, so aggregate runs (corpus evaluation, a batch report)
// produce the same totals in any merge order.
func (m *Metrics) Merge(other Metrics) {
	m.Spans = append(m.Spans, other.Spans...)
	m.Trace = append(m.Trace, other.Trace...)
	m.mergeValues(other)
}

// MergeTotals folds other into m like Merge, for an aggregate that
// lives as long as its process (the uafserve and watch telemetry
// totals): its size stays bounded however many reports it absorbs.
// Spans fold into one per phase, which keeps the first start seen and
// sums the durations, and trace spans are dropped. FormatText and
// PromSink therefore render every phase with the order and total that
// Merge would give; only FormatText's span count is lost.
func (m *Metrics) MergeTotals(other Metrics) {
	for _, sp := range other.Spans {
		i := slices.IndexFunc(m.Spans, func(t Span) bool { return t.Name == sp.Name })
		if i < 0 {
			m.Spans = append(m.Spans, sp)
			continue
		}
		m.Spans[i].Dur += sp.Dur
	}
	m.mergeValues(other)
}

// mergeValues sums counters and histograms and keeps gauge maxima.
func (m *Metrics) mergeValues(other Metrics) {
	for k, v := range other.Counters {
		if m.Counters == nil {
			m.Counters = make(map[string]int64)
		}
		m.Counters[k] += v
	}
	for k, v := range other.Gauges {
		if m.Gauges == nil {
			m.Gauges = make(map[string]int64)
		}
		if v > m.Gauges[k] {
			m.Gauges[k] = v
		}
	}
	for k, v := range other.Hists {
		if m.Hists == nil {
			m.Hists = make(map[string]Histogram)
		}
		h := m.Hists[k]
		h.Merge(v)
		m.Hists[k] = h
	}
}

// ---------------------------------------------------------------- recorder

// Recorder accumulates spans, counters and gauges. All methods are safe
// on a nil receiver (no-ops) and safe for concurrent use otherwise.
//
// A recorder serves one of two owners. A long-lived one (a server, a
// batch) reads it with Snapshot and Flush as often as it likes. A
// single run ends it with Finish, which hands the state over instead of
// copying it.
type Recorder struct {
	t0    time.Time
	sinks []Sink

	// The maps are allocated on first write: most single-file runs
	// record two phase spans and nothing else.
	mu       sync.Mutex
	spans    []Span
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]Histogram
	trace    []TraceSpan
}

// New creates a Recorder emitting to the given sinks on Flush and
// Finish.
func New(sinks ...Sink) *Recorder {
	return &Recorder{t0: time.Now(), sinks: sinks}
}

// noopEnd is returned by Span on a nil Recorder so the caller's
// `defer end()` costs nothing and allocates nothing.
var noopEnd = func() {}

// Span opens a named phase span and returns its closer.
//
//	end := rec.Span(obs.PhaseParse)
//	defer end()
func (r *Recorder) Span(name string) (end func()) {
	if r == nil {
		return noopEnd
	}
	start := time.Since(r.t0)
	return func() {
		dur := time.Since(r.t0) - start
		r.mu.Lock()
		r.spans = append(r.spans, Span{Name: name, Start: start, Dur: dur})
		r.observeLocked(phaseHistKey(name), dur.Nanoseconds())
		r.mu.Unlock()
	}
}

// phaseKeys holds the phase_ns histogram key of each pipeline phase,
// built once so closing one of their spans builds no string.
var phaseKeys = func() map[string]string {
	keys := make(map[string]string)
	for _, name := range []string{PhaseParse, PhaseResolve, PhaseSummaries, PhaseLower,
		PhaseCCFG, PhasePrune, PhaseExplore, PhaseOracle, PhaseBatch} {
		keys[name] = HistKey(HistPhaseNS, "phase", name)
	}
	return keys
}()

// phaseHistKey returns the phase_ns histogram key of a phase span.
func phaseHistKey(name string) string {
	if k, ok := phaseKeys[name]; ok {
		return k
	}
	return HistKey(HistPhaseNS, "phase", name)
}

// observeLocked records one histogram value; r.mu must be held.
func (r *Recorder) observeLocked(name string, v int64) {
	if r.hists == nil {
		r.hists = make(map[string]Histogram)
	}
	h := r.hists[name]
	h.Observe(v)
	r.hists[name] = h
}

// Observe records one value into the named histogram.
func (r *Recorder) Observe(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.observeLocked(name, v)
	r.mu.Unlock()
}

// ObserveHist merges a locally accumulated histogram into the named
// histogram — the bulk form hot loops use: accumulate into a stack
// Histogram, merge once per phase, exactly like the flushed counters.
func (r *Recorder) ObserveHist(name string, h Histogram) {
	if r == nil || h.Empty() {
		return
	}
	r.mu.Lock()
	if r.hists == nil {
		r.hists = make(map[string]Histogram)
	}
	dst := r.hists[name]
	dst.Merge(h)
	r.hists[name] = dst
	r.mu.Unlock()
}

// Add bumps a counter by delta.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil || delta == 0 {
		return
	}
	r.mu.Lock()
	if r.counters == nil {
		r.counters = make(map[string]int64)
	}
	r.counters[name] += delta
	r.mu.Unlock()
}

// Max raises a gauge to v if v exceeds its current value.
func (r *Recorder) Max(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.gauges == nil {
		r.gauges = make(map[string]int64)
	}
	if cur, ok := r.gauges[name]; !ok || v > cur {
		r.gauges[name] = v
	}
	r.mu.Unlock()
}

// SetTrace attaches a completed span tree to the recorder; Snapshot
// carries it as Metrics.Trace, so sinks (the JSONL trace file) and
// Report.Metrics pick it up without extra plumbing. The per-file
// analysis entry points call this when they own the run's trace.
func (r *Recorder) SetTrace(spans []TraceSpan) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.trace = spans
	r.mu.Unlock()
}

// Snapshot returns a deep copy of the current state.
func (r *Recorder) Snapshot() Metrics {
	if r == nil {
		return Metrics{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Metrics{Spans: r.spans, Counters: r.counters, Gauges: r.gauges,
		Hists: r.hists, Trace: r.trace}.clone()
}

// clone returns a deep copy of m in Snapshot's shape: non-nil Counters
// and Gauges; nil Spans, Hists and Trace when there are none.
func (m Metrics) clone() Metrics {
	c := Metrics{
		Spans:    append([]Span(nil), m.Spans...),
		Counters: make(map[string]int64, len(m.Counters)),
		Gauges:   make(map[string]int64, len(m.Gauges)),
	}
	for k, v := range m.Counters {
		c.Counters[k] = v
	}
	for k, v := range m.Gauges {
		c.Gauges[k] = v
	}
	if len(m.Hists) > 0 {
		c.Hists = make(map[string]Histogram, len(m.Hists))
		for k, h := range m.Hists {
			c.Hists[k] = h
		}
	}
	c.Trace = append([]TraceSpan(nil), m.Trace...)
	return c
}

// Flush emits a snapshot to every sink; the first error wins.
func (r *Recorder) Flush() error {
	if r == nil || len(r.sinks) == 0 {
		return nil
	}
	return r.emit(r.Snapshot())
}

// Finish ends a single-owner run. It hands the recorder's spans,
// counters, gauges, histograms and trace to the caller without copying
// and leaves the recorder empty, so later writes never reach the
// returned value. The result has the shape Snapshot gives: non-nil
// Counters and Gauges, nil Hists and Trace when there are none. When
// the recorder has sinks, each receives a deep copy of the result, so
// a sink that keeps it shares nothing with the caller; the first sink
// error wins. Call Finish once, after every writer of the run is done.
func (r *Recorder) Finish() (Metrics, error) {
	if r == nil {
		return Metrics{}, nil
	}
	r.mu.Lock()
	m := Metrics{Spans: r.spans, Counters: r.counters, Gauges: r.gauges,
		Hists: r.hists, Trace: r.trace}
	r.spans, r.counters, r.gauges, r.hists, r.trace = nil, nil, nil, nil, nil
	r.mu.Unlock()
	if m.Counters == nil {
		m.Counters = make(map[string]int64)
	}
	if m.Gauges == nil {
		m.Gauges = make(map[string]int64)
	}
	if len(m.Trace) == 0 {
		m.Trace = nil
	}
	if len(r.sinks) == 0 {
		return m, nil
	}
	return m, r.emit(m.clone())
}

// emit sends m to every sink; the first error wins.
func (r *Recorder) emit(m Metrics) error {
	var first error
	for _, s := range r.sinks {
		if err := s.Emit(m); err != nil && first == nil {
			first = err
		}
	}
	return first
}
