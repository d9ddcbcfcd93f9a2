// Package obs is the pipeline's telemetry layer: phase timings, typed
// counters, gauges and histograms, and request tracing.
//
// Every stage of the analysis pipeline (parse, resolve, lower, CCFG
// build, prune, PPS exploration, dynamic oracle) times itself with
// Recorder.Span, which observes the phase_ns histogram, and bumps
// counters for the state-space work it performs. The
// Recorder is nil-safe: a nil *Recorder turns every call into a no-op,
// so library code records unconditionally and pays nothing when
// telemetry is off. Counters that live on hot loops (one bump per PPS
// transition) are accumulated in plain integers by the caller and
// flushed into the Recorder once per phase, so the exploration loop
// itself never touches a map or a mutex.
//
// A Snapshot of a Recorder, or the state Finish hands over at the end
// of a run, is a Metrics value — a plain, serializable struct — which
// renders itself: FormatText for humans, WriteJSONL as a JSON-lines
// trace file, WritePrometheus in Prometheus text exposition format.
package obs

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase names used by the pipeline's phase timings.
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
	// uafserve's serving layers: the wait for an analysis slot and the
	// encoding of one result line.
	PhaseAdmission  = "admission"
	PhaseWireEncode = "wire-encode"
)

// Counter names. The dotted names are stable identifiers; WritePrometheus
// rewrites dots to underscores.
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
	// CtrServerDeltaAbandoned counts /v1/delta lines whose analysis
	// ignored its deadline and was abandoned (answered with an error
	// line instead of a report).
	CtrServerDeltaAbandoned = "server.delta_abandoned"
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
	// disappeared between polls (warnings dropped), and analyses the
	// watchdog abandoned as hung.
	CtrWatchPolls     = "watch.polls"
	CtrWatchChanged   = "watch.changed_files"
	CtrWatchDeleted   = "watch.deleted_files"
	CtrWatchAbandoned = "watch.abandoned"
)

// Gauge names.
const (
	GaugePeakFrontier = "pps.peak_frontier"
	// Live load gauges of the uafserve daemon: requests currently being
	// analyzed and requests waiting in the admission queue, sampled at
	// /metrics scrape time.
	GaugeServerInflight   = "server.inflight"
	GaugeServerQueueDepth = "server.queue_depth"
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

// phaseOrder is the pipeline order of the phases; FormatText lists
// phase timings in it.
var phaseOrder = []string{PhaseAdmission, PhaseParse, PhaseResolve, PhaseSummaries, PhaseLower,
	PhaseCCFG, PhasePrune, PhaseExplore, PhaseOracle, PhaseBatch, PhaseWireEncode}

// Metrics is a plain snapshot of a Recorder: what the public API
// attaches to reports, rendered by FormatText, WriteJSONL and
// WritePrometheus.
type Metrics struct {
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	// Hists holds fixed-bucket log2 histograms keyed by
	// "family|label=value,..." (see HistKey). Phase timings are the
	// phase_ns family, one observation per phase run. Families ending
	// in "_ns" are wall-clock and nondeterministic; all others are
	// schedule-independent.
	Hists map[string]Histogram `json:"hists,omitempty"`
	// Trace is the span tree of the run when request tracing was on.
	Trace []TraceSpan `json:"trace,omitempty"`
}

// Counter returns the named counter, or 0.
func (m Metrics) Counter(name string) int64 { return m.Counters[name] }

// Gauge returns the named gauge, or 0.
func (m Metrics) Gauge(name string) int64 { return m.Gauges[name] }

// PhaseTotal is the summed wall time of every run of the named phase:
// the Sum of its phase_ns histogram.
func (m Metrics) PhaseTotal(name string) time.Duration {
	return time.Duration(m.Hists[phaseHistKey(name)].Sum)
}

// phaseNames returns the phases m holds phase_ns timings for: pipeline
// phases in pipeline order, then any other phase by name.
func (m Metrics) phaseNames() []string {
	var names []string
	for _, key := range m.HistNames() {
		if name, ok := strings.CutPrefix(key, HistPhaseNS+"|phase="); ok {
			names = append(names, name)
		}
	}
	rank := func(name string) int {
		if i := slices.Index(phaseOrder, name); i >= 0 {
			return i
		}
		return len(phaseOrder)
	}
	sort.SliceStable(names, func(i, j int) bool { return rank(names[i]) < rank(names[j]) })
	return names
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

// Merge folds other into m: trace spans are concatenated, counters
// summed, gauges kept at their maximum, histograms summed bucket-wise.
// Counter, gauge and histogram merging is commutative and associative,
// so aggregate runs (corpus evaluation, a batch report) produce the
// same totals in any merge order.
func (m *Metrics) Merge(other Metrics) {
	m.Trace = append(m.Trace, other.Trace...)
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

// Clone returns a deep copy of m. Nil maps stay nil, an empty trace
// becomes nil, and every trace span gets its own Attrs map.
func (m Metrics) Clone() Metrics {
	c := Metrics{Counters: maps.Clone(m.Counters), Gauges: maps.Clone(m.Gauges), Hists: maps.Clone(m.Hists)}
	if len(m.Trace) > 0 {
		c.Trace = make([]TraceSpan, len(m.Trace))
		for i, sp := range m.Trace {
			sp.Attrs = maps.Clone(sp.Attrs)
			c.Trace[i] = sp
		}
	}
	return c
}

// withMaps gives m the non-nil Counters and Gauges every snapshot has,
// so callers may write into them.
func (m Metrics) withMaps() Metrics {
	if m.Counters == nil {
		m.Counters = make(map[string]int64)
	}
	if m.Gauges == nil {
		m.Gauges = make(map[string]int64)
	}
	return m
}

// ---------------------------------------------------------------- recorder

// Recorder accumulates counters, gauges, histograms and a trace. All
// methods are safe on a nil receiver (no-ops) and safe for concurrent
// use otherwise.
//
// A recorder serves one of two owners. A long-lived one (a server, a
// watch session) reads it with Snapshot as often as it likes and folds
// finished runs into it with Absorb. A single run ends it with Finish,
// which hands the state over instead of copying it.
type Recorder struct {
	// The maps are allocated on first write: most single-file runs
	// record two phase timings and nothing else.
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]Histogram
	trace    []TraceSpan
}

// New creates an empty Recorder.
func New() *Recorder { return &Recorder{} }

// noopEnd is returned by Span on a nil Recorder so the caller's
// `defer end()` costs nothing and allocates nothing.
var noopEnd = func() {}

// Span times one run of a named phase and returns its closer, which
// observes the duration into the phase's phase_ns histogram.
//
//	end := rec.Span(obs.PhaseParse)
//	defer end()
func (r *Recorder) Span(name string) (end func()) {
	if r == nil {
		return noopEnd
	}
	start := time.Now()
	return func() {
		r.Observe(phaseHistKey(name), time.Since(start).Nanoseconds())
	}
}

// phaseKeys holds the phase_ns histogram key of each pipeline phase,
// built once so closing one of their spans builds no string.
var phaseKeys = func() map[string]string {
	keys := make(map[string]string)
	for _, name := range phaseOrder {
		keys[name] = HistKey(HistPhaseNS, "phase", name)
	}
	return keys
}()

// phaseHistKey returns the phase_ns histogram key of a phase.
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

// Absorb folds a finished run's telemetry into the recorder: counters
// summed, gauges kept at their maximum, histograms merged. The run's
// trace is dropped, so a long-lived recorder stays the same size
// however many runs it absorbs.
func (r *Recorder) Absorb(m Metrics) {
	if r == nil {
		return
	}
	r.mu.Lock()
	agg := Metrics{Counters: r.counters, Gauges: r.gauges, Hists: r.hists}
	agg.mergeValues(m)
	r.counters, r.gauges, r.hists = agg.Counters, agg.Gauges, agg.Hists
	r.mu.Unlock()
}

// SetTrace attaches a completed span tree to the recorder; Snapshot
// and Finish carry it as Metrics.Trace, so the JSONL trace file and
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

// Snapshot returns a deep copy of the current state, with non-nil
// Counters and Gauges.
func (r *Recorder) Snapshot() Metrics {
	if r == nil {
		return Metrics{}
	}
	r.mu.Lock()
	m := Metrics{Counters: r.counters, Gauges: r.gauges, Hists: r.hists, Trace: r.trace}.Clone()
	r.mu.Unlock()
	return m.withMaps()
}

// Finish ends a single-owner run. It hands the recorder's counters,
// gauges, histograms and trace to the caller without copying and
// leaves the recorder empty, so later writes never reach the returned
// value. The result has the shape Snapshot gives: non-nil Counters and
// Gauges, nil Hists and Trace when there are none. Call Finish once,
// after every writer of the run is done.
func (r *Recorder) Finish() Metrics {
	if r == nil {
		return Metrics{}
	}
	r.mu.Lock()
	m := Metrics{Counters: r.counters, Gauges: r.gauges, Hists: r.hists, Trace: r.trace}
	r.counters, r.gauges, r.hists, r.trace = nil, nil, nil, nil
	r.mu.Unlock()
	if len(m.Trace) == 0 {
		m.Trace = nil
	}
	return m.withMaps()
}
