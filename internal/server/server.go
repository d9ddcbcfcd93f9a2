// Package server is the analysis-as-a-service daemon behind
// cmd/uafserve: an HTTP/JSON front end that maps network requests onto
// the existing library stack — the resource governor (per-request
// deadlines degrade, never truncate), the fault-isolated batch driver,
// the content-addressed report cache, and the obs telemetry layer.
//
// Operational model:
//
//   - Admission control: at most MaxInflight requests analyze
//     concurrently and at most QueueDepth more wait; beyond that the
//     server answers 429 with a Retry-After estimate immediately, so
//     overload degrades to fast rejections instead of queue collapse.
//   - Deduplication: identical in-flight request bodies share one
//     analysis (singleflight keyed by content address); followers reuse
//     the leader's encoded bytes verbatim. Completed results are served
//     by the shared report cache.
//   - Degradation: a request's deadline/budget rides the library's
//     degradation ladder — responses carry report.degraded and
//     stats.stop_reason exactly like the library API, with HTTP 200.
//   - Graceful shutdown: Shutdown stops admitting (queued waiters get
//     503, /healthz flips), waits for in-flight analyses to finish, and
//     flushes the disk cache tier.
//
// Endpoints: POST /v1/analyze, POST /v1/analyze-batch (NDJSON stream),
// POST /v1/delta (NDJSON in and out, served by one long-lived
// incremental Analyzer), POST /v1/repair (NDJSON stream of verified
// unified-diff patches; degraded evidence answers a typed 503 refusal,
// never a patch), GET /healthz, GET /livez, GET /metrics (Prometheus
// text format). /v1/analyze and /v1/analyze-batch content-negotiate:
// `Accept: application/sarif+json` or `?format=sarif` serves the SARIF
// 2.1.0 projection with verified repair patches embedded as `fixes`.
// The pre-versioning aliases /analyze and /analyze-batch still work
// but mark their responses deprecated (Deprecation/Link/Sunset
// headers) and count server.deprecated_requests; see docs/SERVER.md
// for the versioning and removal policy.
//
// The HTTP layer around the handlers — tracing, error envelope, body
// decoding, admin pages — is Front (front.go), which the cluster
// coordinator mounts as well.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uafcheck"
	"uafcheck/internal/batch"
	"uafcheck/internal/cache"
	"uafcheck/internal/obs"
	"uafcheck/internal/wire"
)

// Config sizes and wires a Server.
type Config struct {
	// MaxInflight bounds concurrently running analyses (0 = GOMAXPROCS).
	MaxInflight int
	// QueueDepth bounds requests waiting for an analysis slot
	// (0 = 64; negative = no queue, reject when slots are full).
	QueueDepth int
	// DefaultDeadline applies to requests that set no deadline_ms
	// (0 = 30s). On expiry the analysis degrades conservatively.
	DefaultDeadline time.Duration
	// MaxDeadline caps any per-request deadline (0 = 2m).
	MaxDeadline time.Duration
	// Parallelism is the per-analysis PPS worker count (0 = 1: request
	// slots are the scaling unit, like file workers in a batch).
	Parallelism int
	// BatchWorkers is the per-request worker-pool size of
	// /v1/analyze-batch (0 = GOMAXPROCS).
	BatchWorkers int
	// MaxBodyBytes bounds a request body (0 = 8 MiB).
	MaxBodyBytes int64
	// Cache, when non-nil, memoizes complete reports across requests —
	// the process-wide tier under the singleflight layer. The server
	// owns its lifecycle: Shutdown flushes and closes it.
	Cache *uafcheck.Cache
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints are a debugging surface, not a
	// production one.
	EnablePprof bool
	// Logger receives operational log records (nil = slog.Default()).
	Logger *slog.Logger
	// Mode labels this process's cluster role on /healthz and /statusz
	// ("single", "worker" or "coordinator"; "" = "single") so
	// mixed-role and mixed-version fleets are diagnosable from their
	// health surfaces alone.
	Mode string
}

// ComponentStatus is one component's health row in /healthz and
// /statusz. State is one of "ok", "off" (not configured), "degraded",
// "disabled", "dead", "draining" or "unready"; Detail carries
// component-specific numbers (queue depths, error counts).
type ComponentStatus struct {
	State  string           `json:"state"`
	Detail map[string]int64 `json:"detail,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 64
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Mode == "" {
		c.Mode = "single"
	}
	return c
}

// RequestOptions are the per-request analysis knobs, a strict subset of
// the library Options. Absent fields keep library defaults. All fields
// participate in the dedup/cache content address.
type RequestOptions struct {
	// Prune toggles CCFG pruning rules A-D (default true).
	Prune *bool `json:"prune,omitempty"`
	// MaxStates bounds the PPS exploration (0 = library default); the
	// budget rung of the degradation ladder.
	MaxStates int `json:"max_states,omitempty"`
	// DeadlineMS bounds the analysis wall clock; the deadline rung.
	// 0 means the server's DefaultDeadline; values above MaxDeadline
	// are clamped.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Trace records PPS tables on report.pps_traces.
	Trace bool `json:"trace,omitempty"`
	// ModelAtomics / CountAtomics enable the atomics extensions.
	ModelAtomics bool `json:"model_atomics,omitempty"`
	CountAtomics bool `json:"count_atomics,omitempty"`
	// Retries grants timed-out files extra shrinking-budget attempts
	// (batch requests only).
	Retries int `json:"retries,omitempty"`
	// Metrics includes the telemetry snapshot in-band. Responses with
	// metrics are not byte-stable across cache hits (the snapshot
	// legitimately differs), so it is off by default.
	Metrics bool `json:"metrics,omitempty"`
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	// Name labels the source in warnings ("input.chpl" when empty).
	Name string `json:"name"`
	// Src is the MiniChapel source text.
	Src     string         `json:"src"`
	Options RequestOptions `json:"options"`
}

// BatchFile is one input of a batch request.
type BatchFile struct {
	Name string `json:"name"`
	Src  string `json:"src"`
}

// BatchRequest is the body of POST /v1/analyze-batch.
type BatchRequest struct {
	Files   []BatchFile    `json:"files"`
	Options RequestOptions `json:"options"`
	// Mode selects the analysis shape: "" or "files" (default) analyzes
	// every file independently on the worker pool; "module" links all
	// files into one module (cross-file calls resolve, callee summaries
	// compose) and answers one canonical line per file in input order.
	Mode string `json:"mode,omitempty"`
	// Module labels the module for mode "module"; it participates in
	// cluster routing (ModuleRouteKey) so successive snapshots of the
	// same module keep landing on the same worker. Defaults to the first
	// file's name.
	Module string `json:"module,omitempty"`
}

// DeltaRequest is one line of a POST /v1/delta NDJSON request stream:
// a (possibly re-sent) file to analyze incrementally. Every line runs
// through the server's one long-lived Analyzer under its own options,
// so re-sending a file after an edit only recomputes the procedures the
// edit touched. Retries is the only option field without effect here
// (delta lines are single-shot).
type DeltaRequest struct {
	Name    string         `json:"name"`
	Src     string         `json:"src"`
	Options RequestOptions `json:"options"`
	// Module switches the line to module mode: Files carries the full
	// module snapshot (not a diff) and Name/Src are ignored. Module
	// lines share the server's Analyzer with single-file lines, and its
	// per-unit memo store keys module units on the call-graph view —
	// editing one file recomputes only the units whose composed callee
	// summaries changed. The response is one canonical line per file, in
	// input order.
	Module string `json:"module,omitempty"`
	// Files is the module snapshot for module-mode lines.
	Files []BatchFile `json:"files,omitempty"`
}

// moduleMode reports whether the delta line is a whole-module snapshot.
func (d *DeltaRequest) moduleMode() bool {
	return d.Module != "" || len(d.Files) > 0
}

// Error codes carried by errorBody.Code.
const (
	// CodeRepairDegraded: the repair was refused because an analysis
	// in the verification loop degraded (budget, deadline,
	// cancellation, panic). Degraded evidence can neither accept nor
	// reject a candidate patch, so no patch is served; the response is
	// a 503 with Retry-After. Retry with a larger max_states budget or
	// a longer deadline.
	CodeRepairDegraded = "repair_degraded"
	// CodeParseError: the source failed the frontend (422).
	CodeParseError = "parse_error"
	// CodeUnresolvedCall: a module-mode analysis found a call that names
	// no procedure in any file of the module (422). The error text lists
	// the unresolved sites; send the missing file in the module snapshot.
	CodeUnresolvedCall = "unresolved_call"
)

// Server is the daemon's request-independent state. Create with New,
// expose via Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	gate    *gate
	flights *flightGroup
	rec     *obs.Recorder
	front   *Front
	logger  *slog.Logger

	// deprOnce gates the one-time deprecation warning: the log line
	// fires on the first unversioned-alias hit only, the counter on all.
	deprOnce sync.Once

	// active counts requests anywhere inside a handler (admitted or
	// not); Shutdown polls it to zero after closing the gate.
	active atomic.Int64
	// ewmaMS tracks a moving average of analysis latency, feeding the
	// Retry-After estimate on 429s.
	ewmaMS atomic.Int64

	// an runs every /v1/delta line, whatever its options: every option
	// that can change a result is part of the unit fingerprint.
	an *uafcheck.Analyzer
}

// New builds a Server from cfg (zero values take documented defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{
		cfg:     cfg,
		gate:    newGate(cfg.MaxInflight, cfg.QueueDepth),
		flights: newFlightGroup(),
		rec:     obs.New(),
		logger:  logger,
		an:      uafcheck.NewAnalyzer(),
	}
	s.front = NewFront(Role{
		Mode:         cfg.Mode,
		Rec:          s.rec,
		MaxBodyBytes: cfg.MaxBodyBytes,
		Pprof:        cfg.EnablePprof,
		Components:   s.componentHealth,
		Metrics:      s.MetricsSnapshot,
		RetryAfter:   s.retryAfterSeconds,
		Healthz:      s.load,
		Statusz:      s.load,
	})
	return s
}

// Handler returns the daemon's route table. Analysis endpoints live
// under the /v1/ prefix; the pre-versioning spellings of /analyze and
// /analyze-batch remain as deprecated aliases (newer endpoints like
// /v1/delta have no unversioned form).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.front.Traced("/v1/analyze", s.handleAnalyze))
	mux.HandleFunc("POST /v1/analyze-batch", s.front.Traced("/v1/analyze-batch", s.handleBatch))
	mux.HandleFunc("POST /v1/delta", s.front.Traced("/v1/delta", s.handleDelta))
	mux.HandleFunc("POST /v1/repair", s.front.Traced("/v1/repair", s.handleRepair))
	mux.HandleFunc("POST /analyze",
		s.deprecatedAlias("/v1/analyze", s.front.Traced("/analyze", s.handleAnalyze)))
	mux.HandleFunc("POST /analyze-batch",
		s.deprecatedAlias("/v1/analyze-batch", s.front.Traced("/analyze-batch", s.handleBatch)))
	s.front.Mount(mux)
	return mux
}

// UnversionedSunset is the RFC 8594 Sunset date of the deprecated
// unversioned /analyze and /analyze-batch aliases: the earliest
// release after this date removes them. The removal policy — at least
// two minor releases of Deprecation+Sunset warning before the routes
// answer 410 — is documented in docs/SERVER.md.
const UnversionedSunset = "Fri, 01 Jan 2027 00:00:00 GMT"

// deprecatedAlias serves an unversioned pre-v1 route: same behavior as
// the versioned handler, plus the full RFC deprecation header set —
// Deprecation, a Link to the successor, and the Sunset date after
// which the alias may be removed — and a server.deprecated_requests
// count so operators can see when the aliases are finally unused.
func (s *Server) deprecatedAlias(successor string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.rec.Add(obs.CtrServerDeprecated, 1)
		s.deprOnce.Do(func() {
			s.logger.Warn("deprecated unversioned route hit; clients should migrate",
				"route", r.URL.Path, "successor", successor, "sunset", UnversionedSunset)
		})
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", "<"+successor+">; rel=\"successor-version\"")
		w.Header().Set("Sunset", UnversionedSunset)
		h(w, r)
	}
}

// Shutdown gracefully stops the server: the admission gate closes
// (queued waiters are released with 503, /healthz flips to draining),
// in-flight analyses run to completion, and the report cache's disk
// tier is flushed and closed. Returns ctx.Err if the drain did not
// finish in time; the cache is flushed regardless.
func (s *Server) Shutdown(ctx context.Context) error {
	s.gate.drain()
	var err error
poll:
	for s.active.Load() > 0 {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break poll
		case <-time.After(2 * time.Millisecond):
		}
	}
	if s.cfg.Cache != nil {
		s.cfg.Cache.Flush()
		s.cfg.Cache.Close()
	}
	return err
}

// MetricsSnapshot returns the server's recorder — its own counters
// plus every absorbed analysis's telemetry — with the live load and
// disk-cache gauges: what /metrics renders. Absorb drops trace spans,
// so a scrape copies a bounded value however many requests came
// before.
func (s *Server) MetricsSnapshot() obs.Metrics {
	m := s.rec.Snapshot()
	inflight, queued := s.gate.load()
	m.Gauges[obs.GaugeServerInflight] = int64(inflight)
	m.Gauges[obs.GaugeServerQueueDepth] = int64(queued)
	if s.cfg.Cache != nil {
		st := s.cfg.Cache.Stats()
		m.Gauges[obs.GaugeCacheDiskErrors] = st.DiskErrors
		m.Gauges[obs.GaugeCacheQuarantined] = st.Quarantined
		m.Gauges[obs.GaugeCacheDroppedWrites] = st.DroppedWrites
	}
	return m
}

// ------------------------------------------------------------ analyze

// requestKey derives the singleflight content address: everything that
// determines the response bytes participates — tool version, name,
// source, and the effective (post-default) option set.
func (s *Server) requestKey(kind, name, src string, o RequestOptions) string {
	return cache.KeyOf("uafserve/"+kind, uafcheck.Version, name, src,
		optionSet(o, "deadline="+s.effectiveDeadline(o).String())).String()
}

// RouteKey is the content fingerprint the cluster coordinator routes
// by: the same inputs as the singleflight/cache key (kind, tool
// version, name, source, option set) minus the server-resolved
// deadline, which a coordinator cannot know without the worker's
// config. Routing only needs determinism, not cache-key equality.
func RouteKey(kind, name, src string, o RequestOptions) cache.Key {
	return cache.KeyOf("uafserve/route/"+kind, uafcheck.Version, name, src, routeOptionSet(o))
}

// ModuleRouteKey is the cluster routing fingerprint of a module-mode
// request: module label plus option set, deliberately NOT the file
// contents. Successive snapshots of one module must land on the same
// worker — that worker's Analyzer holds the module's per-unit
// memo store, and content-addressed routing would scatter every edit
// to a cold worker. Mirrors RouteKey otherwise.
func ModuleRouteKey(module string, o RequestOptions) cache.Key {
	return cache.KeyOf("uafserve/route/module", uafcheck.Version, module, routeOptionSet(o))
}

// routeOptionSet is the option set of both route keys, with the
// request's own deadline.
func routeOptionSet(o RequestOptions) string {
	return optionSet(o, "deadline_ms="+strconv.FormatInt(o.DeadlineMS, 10))
}

// optionSet renders a request's option fields for a content address or
// route key; deadline is the rendered deadline field. The bytes decide
// cache hits and worker placement, so they must not change.
func optionSet(o RequestOptions, deadline string) string {
	return fmt.Sprintf("prune=%t max_states=%d %s trace=%t ma=%t ca=%t retries=%d metrics=%t",
		o.Prune == nil || *o.Prune, o.MaxStates, deadline,
		o.Trace, o.ModelAtomics, o.CountAtomics, o.Retries, o.Metrics)
}

// Validate checks what a batch request must satisfy before any file is
// analyzed; a worker and the cluster edge both answer its error as 400.
func (b *BatchRequest) Validate() error {
	if len(b.Files) == 0 {
		return errors.New("missing files")
	}
	if b.Mode != "" && b.Mode != "files" && b.Mode != "module" {
		return fmt.Errorf("unknown mode %q", b.Mode)
	}
	return nil
}

// ModuleLabel resolves the routing label of a module-mode batch
// request: the explicit Module field, else the first file's name.
func (b *BatchRequest) ModuleLabel() string { return moduleLabel(b.Module, b.Files) }

// ModuleLabel resolves the routing label of a module-mode delta line.
func (d *DeltaRequest) ModuleLabel() string { return moduleLabel(d.Module, d.Files) }

func moduleLabel(module string, files []BatchFile) string {
	switch {
	case module != "":
		return module
	case len(files) > 0:
		return files[0].Name
	}
	return "module"
}

// effectiveDeadline resolves a request's deadline against the server's
// default and cap.
func (s *Server) effectiveDeadline(o RequestOptions) time.Duration {
	d := time.Duration(o.DeadlineMS) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// libraryOptions maps request options onto the functional option set of
// the context-first API.
func (s *Server) libraryOptions(o RequestOptions) []uafcheck.Option {
	opts := []uafcheck.Option{
		uafcheck.WithPrune(o.Prune == nil || *o.Prune),
		uafcheck.WithMaxStates(o.MaxStates),
		uafcheck.WithTrace(o.Trace),
		uafcheck.WithAtomicsModel(o.ModelAtomics),
		uafcheck.WithAtomicsCounting(o.CountAtomics),
		uafcheck.WithParallelism(s.cfg.Parallelism),
	}
	if s.cfg.Cache != nil {
		opts = append(opts, uafcheck.WithCache(s.cfg.Cache))
	}
	return opts
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	// The negotiated format is part of the content address — a SARIF
	// response and a canonical-JSON response are different bytes, so
	// they must never share a flight.
	sarif := WantsSARIF(r)
	kind := "analyze"
	if sarif {
		kind = "analyze-sarif"
	}
	s.serveShared(w, r, kind, func(req AnalyzeRequest) flightResult { return s.analyzeLeader(r, req, sarif) })
}

// serveShared answers a request with the AnalyzeRequest body (analyze,
// repair) through the singleflight layer: identical concurrent requests
// share one leader computation and reuse its bytes verbatim. The claim
// happens before admission: followers piggyback on the leader's slot
// instead of consuming queue capacity, so a burst of identical requests
// costs one computation and one slot.
func (s *Server) serveShared(w http.ResponseWriter, r *http.Request, kind string, lead func(AnalyzeRequest) flightResult) {
	s.active.Add(1)
	defer s.active.Add(-1)
	s.rec.Add(obs.CtrServerRequests, 1)

	var req AnalyzeRequest
	if !s.front.DecodeBody(w, r, &req) {
		return
	}
	if req.Src == "" {
		s.front.WriteError(w, http.StatusBadRequest, "missing src")
		return
	}
	if req.Name == "" {
		req.Name = "input.chpl"
	}

	key := s.requestKey(kind, req.Name, req.Src, req.Options)
	f, leader := s.flights.claim(key)
	if !leader {
		s.rec.Add(obs.CtrServerDedupHits, 1)
		stateFrom(r.Context()).setDedup("follower")
		select {
		case <-f.done:
		case <-r.Context().Done():
			return // client went away while waiting; nothing to write
		}
		if f.res.cacheHit {
			stateFrom(r.Context()).setCacheHit()
		}
		s.writeResult(w, f.res, "follower")
		return
	}

	stateFrom(r.Context()).setDedup("leader")
	res := lead(req)
	s.flights.finish(key, f, res)
	s.writeResult(w, res, "leader")
}

// analyzeLeader runs the deduplicated computation: admission, analysis,
// canonical encoding (or the SARIF projection with embedded fixes when
// the request negotiated it). Its flightResult is shared with every
// follower.
func (s *Server) analyzeLeader(r *http.Request, req AnalyzeRequest, sarif bool) flightResult {
	if err := s.admit(r.Context()); err != nil {
		return s.rejection(err)
	}
	defer s.gate.release()

	t0 := time.Now()
	// The analysis deliberately runs detached from the request context:
	// its wall-clock bound is the request deadline (degrading, not
	// aborting), and a leader's early disconnect must not starve the
	// followers sharing this flight. obs.Detach keeps the request's
	// trace and parent span so the analysis spans stay in the tree.
	rep, err := uafcheck.AnalyzeContext(obs.Detach(r.Context()), req.Name, req.Src,
		append(s.libraryOptions(req.Options), uafcheck.WithDeadline(s.effectiveDeadline(req.Options)))...)
	s.observeAnalysis(t0, 1, metricsOf(rep))

	st := stateFrom(r.Context())
	code := statusCodeFor(err)
	result := wire.NewResult(req.Name, rep, err, req.Options.Metrics)
	var body []byte
	var encErr error
	ctype := ""
	if sarif && code == http.StatusOK {
		repairs := map[string]wire.RepairedFile{req.Name: {Src: req.Src, Report: s.repairForSARIF(r, req, rep)}}
		body, encErr = wire.SARIFWithFixes([]wire.Result{result}, repairs).EncodeIndent()
		ctype = "application/sarif+json"
	} else {
		_, endEncode := obs.StartPhase(r.Context(), s.rec, obs.PhaseWireEncode)
		body, encErr = result.Encode()
		endEncode()
	}
	if encErr != nil {
		return flightResult{code: http.StatusInternalServerError,
			body: mustJSON(errorBody{Error: encErr.Error()})}
	}
	cacheHit := rep != nil && rep.Metrics.Counter(obs.CtrCacheHits) > 0
	if cacheHit {
		st.setCacheHit()
	}
	if rep != nil && rep.Degraded != nil {
		st.set("degraded", string(rep.Degraded.Reason))
	}
	return flightResult{code: code, body: body, cacheHit: cacheHit, ctype: ctype}
}

// repairForSARIF best-effort-repairs one analyzed file so its SARIF
// projection can embed fixes. It returns nil — plain results, no fixes
// — whenever the evidence doesn't support a verified patch: no
// warnings, a degraded report (conservative warnings must never carry
// a patch), or a repair refusal. Repair failures are deliberately
// swallowed: fixes are an enrichment of the SARIF document, not a
// precondition for serving it.
func (s *Server) repairForSARIF(r *http.Request, req AnalyzeRequest, rep *uafcheck.Report) *uafcheck.RepairReport {
	if rep == nil || rep.Degraded != nil || len(rep.Warnings) == 0 {
		return nil
	}
	rr, err := uafcheck.Repair(obs.Detach(r.Context()), req.Name, req.Src,
		append(s.libraryOptions(req.Options), uafcheck.WithDeadline(s.effectiveDeadline(req.Options)))...)
	if err != nil || len(rr.Patches) == 0 {
		return nil
	}
	return rr
}

// statusCodeFor maps an analysis error onto an HTTP status via the
// library's typed sentinels: a frontend rejection (ErrParse) is the
// client's fault, 422; anything else surfacing as an error — instead of
// a degraded report — is unexpected, 500. Resource exhaustion
// (ErrBudgetExhausted, ErrDeadline, ErrCancelled) never reaches this
// path: those ride the degradation ladder inside a 200 report.
func statusCodeFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, uafcheck.ErrParse):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// observeAnalysis folds n analyses that finished together since t0
// into the latency EWMA (per file) and their telemetry m into the
// server's recorder.
func (s *Server) observeAnalysis(t0 time.Time, n int, m obs.Metrics) {
	s.rec.Add(obs.CtrServerAnalyses, int64(n))
	ms := time.Since(t0).Milliseconds() / int64(n)
	old := s.ewmaMS.Load()
	s.ewmaMS.Store((old*3 + ms) / 4)
	s.rec.Absorb(m)
}

// metricsOf is a report's telemetry (none for a failed analysis).
func metricsOf(rep *uafcheck.Report) obs.Metrics {
	if rep == nil {
		return obs.Metrics{}
	}
	return rep.Metrics
}

// admit waits for an analysis slot, timed as the request's admission
// phase: a trace span and a phase_ns observation.
func (s *Server) admit(ctx context.Context) error {
	_, end := obs.StartPhase(ctx, s.rec, obs.PhaseAdmission)
	defer end()
	return s.gate.acquire(ctx)
}

// resultLine encodes one file's canonical wire line, timed as a
// wire-encode phase.
func (s *Server) resultLine(ctx context.Context, name string, rep *uafcheck.Report, err error, metrics bool) []byte {
	_, end := obs.StartPhase(ctx, s.rec, obs.PhaseWireEncode)
	defer end()
	line, encErr := wire.NewResult(name, rep, err, metrics).Encode()
	if encErr != nil {
		return mustJSON(errorBody{Error: encErr.Error()})
	}
	return line
}

// NDJSON writes an application/x-ndjson response one line at a time.
// WriteLine serializes concurrent callers and flushes every line, so
// clients see progress, not a burst. The 200 header goes out on Start
// or with the first line; until then the handler may still answer with
// another status, as the cluster edge does to relay a worker's 429 or
// 503 verbatim.
type NDJSON struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	started bool
}

// NewNDJSON returns an unstarted line writer over w.
func NewNDJSON(w http.ResponseWriter) *NDJSON { return &NDJSON{w: w} }

// Start sends the 200 header, once.
func (n *NDJSON) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.startLocked()
}

func (n *NDJSON) startLocked() {
	if !n.started {
		n.w.Header().Set("Content-Type", "application/x-ndjson")
		n.w.WriteHeader(http.StatusOK)
		n.started = true
	}
}

// Started reports whether the 200 header has gone out.
func (n *NDJSON) Started() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.started
}

// WriteLine starts the stream if needed, then writes line and its
// newline and flushes.
func (n *NDJSON) WriteLine(line []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.startLocked()
	_, err := n.w.Write(append(line, '\n'))
	if f, ok := n.w.(http.Flusher); ok {
		f.Flush()
	}
	return err
}

// BatchName is the name a batch file is reported under: its own, or
// its position's default. A worker and the cluster edge name files the
// same way.
func BatchName(f BatchFile, i int) string {
	if f.Name != "" {
		return f.Name
	}
	return fmt.Sprintf("input-%d.chpl", i)
}

// batchInputs names a request's files for the library.
func batchInputs(in []BatchFile) []uafcheck.FileInput {
	files := make([]uafcheck.FileInput, len(in))
	for i, f := range in {
		files[i] = uafcheck.FileInput{Name: BatchName(f, i), Src: f.Src}
	}
	return files
}

// -------------------------------------------------------------- batch

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.active.Add(1)
	defer s.active.Add(-1)
	s.rec.Add(obs.CtrServerRequests, 1)

	var req BatchRequest
	if !s.front.DecodeBody(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		s.front.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.admit(r.Context()); err != nil {
		res := s.rejection(err)
		s.writeResult(w, res, "")
		return
	}
	defer s.gate.release()
	s.rec.Add(obs.CtrServerBatchFiles, int64(len(req.Files)))

	if req.Mode == "module" {
		s.batchModule(w, r, req)
		return
	}

	files := batchInputs(req.Files)

	// Negotiated SARIF: one aggregate document instead of an NDJSON
	// stream (SARIF has no line-oriented form). Results are collected
	// as workers finish and projected once at the end; per-file repair
	// runs afterwards so fixes embed next to the warnings they fix.
	if WantsSARIF(r) {
		s.batchSARIF(w, r, files, req.Options)
		return
	}

	// NDJSON stream: one canonical result line per file, written from
	// the worker that finished it. A dead client just discards the
	// stream.
	out := NewNDJSON(w)
	out.Start()
	emit := func(i int, fr uafcheck.FileReport) {
		out.WriteLine(s.resultLine(r.Context(), fr.Name, fr.Report, fr.Err, req.Options.Metrics)) //nolint:errcheck
	}

	t0 := time.Now()
	opts := append(s.libraryOptions(req.Options),
		uafcheck.WithWorkers(s.cfg.BatchWorkers),
		uafcheck.WithDeadline(s.effectiveDeadline(req.Options)),
		uafcheck.WithRetries(req.Options.Retries),
		uafcheck.WithOnFile(emit),
	)
	// The request context drives the batch: a disconnected client
	// cancels remaining files (they degrade and stream to nowhere).
	batchRep := uafcheck.AnalyzeFilesContext(r.Context(), files, opts...)
	s.observeAnalysis(t0, len(files), batchRep.Metrics)
}

// batchModule serves mode "module" of /v1/analyze-batch: the files are
// linked and analyzed as one module (cross-file calls resolve, callee
// summaries compose), and the response is an NDJSON stream of
// canonical per-file result lines in input order. A frontend or
// unresolved-call failure anywhere in the module rejects the whole
// request — module results are all-or-nothing, matching the library's
// AnalyzeModuleContext contract. A batch runs one-shot and leaves the
// server's Analyzer alone: the Analyzer keeps only the last module
// snapshot's parses and summaries, so a batch through it would replace
// a live /v1/delta session's.
func (s *Server) batchModule(w http.ResponseWriter, r *http.Request, req BatchRequest) {
	// Detached from the request context like the single-file leader: the
	// wall-clock bound is the request deadline, degrading rather than
	// aborting.
	lines, err := s.moduleLines(obs.Detach(r.Context()), req.Files, req.Options, uafcheck.AnalyzeModuleContext,
		uafcheck.WithDeadline(s.effectiveDeadline(req.Options)))
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(statusCodeFor(err))
		w.Write(append(moduleErrorBody(err), '\n')) //nolint:errcheck
		return
	}
	out := NewNDJSON(w)
	for _, line := range lines {
		out.WriteLine(line) //nolint:errcheck — a dead client just discards the stream
	}
}

// moduleAnalysis is the signature of uafcheck.AnalyzeModuleContext and
// Analyzer.AnalyzeModuleDelta.
type moduleAnalysis func(context.Context, []uafcheck.FileInput, ...uafcheck.Option) (*uafcheck.BatchReport, error)

// moduleLines analyzes one module snapshot with analyze and encodes one
// canonical line per file, in input order. options follow the
// request's own.
func (s *Server) moduleLines(ctx context.Context, in []BatchFile, o RequestOptions, analyze moduleAnalysis, options ...uafcheck.Option) ([][]byte, error) {
	files := batchInputs(in)
	t0 := time.Now()
	rep, err := analyze(ctx, files, append(s.libraryOptions(o), options...)...)
	if err != nil {
		return nil, err
	}
	s.observeAnalysis(t0, len(files), rep.Metrics)
	lines := make([][]byte, len(rep.Files))
	for i, fr := range rep.Files {
		lines[i] = s.resultLine(ctx, fr.Name, fr.Report, fr.Err, o.Metrics)
	}
	return lines, nil
}

// moduleErrorBody renders a module analysis error as the JSON error
// envelope, with the typed code of a frontend or unresolved-call
// failure (an unresolved-call error matches both sentinels; the finer
// code wins).
func moduleErrorBody(err error) []byte {
	code := ""
	switch {
	case errors.Is(err, uafcheck.ErrUnresolvedCall):
		code = CodeUnresolvedCall
	case errors.Is(err, uafcheck.ErrParse):
		code = CodeParseError
	}
	return mustJSON(errorBody{Error: err.Error(), Code: code})
}

// ------------------------------------------------------------- repair

// handleRepair serves POST /v1/repair: the request body is the
// AnalyzeRequest shape, the response is an NDJSON stream — one line
// per verified patch (unified diff + verdict + warning delta) and a
// terminal summary line carrying the cumulative diff. The endpoint
// rides the same middleware as analysis: tracing, admission control,
// and singleflight (identical concurrent repair requests share one
// repair run and its bytes).
//
// The refusal contract: any degraded analysis inside the
// repair-verify loop answers 503 with code "repair_degraded" and
// Retry-After — degraded evidence can neither accept nor reject a
// candidate, so no patch is ever served from it.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	s.serveShared(w, r, "repair", func(req AnalyzeRequest) flightResult { return s.repairLeader(r, req) })
}

// repairLeader runs the deduplicated repair: admission, the
// repair-verify loop, NDJSON encoding. Like analyzeLeader it detaches
// from the request context — the wall-clock bound is the request
// deadline (whose expiry degrades an inner analysis and thereby turns
// into a typed refusal), and a leader's disconnect must not starve
// followers.
func (s *Server) repairLeader(r *http.Request, req AnalyzeRequest) flightResult {
	if err := s.admit(r.Context()); err != nil {
		return s.rejection(err)
	}
	defer s.gate.release()
	s.rec.Add(obs.CtrServerRepairs, 1)

	t0 := time.Now()
	rr, err := uafcheck.Repair(obs.Detach(r.Context()), req.Name, req.Src,
		append(s.libraryOptions(req.Options), uafcheck.WithDeadline(s.effectiveDeadline(req.Options)))...)
	s.observeAnalysis(t0, 1, obs.Metrics{})

	st := stateFrom(r.Context())
	switch {
	case err == nil:
	case errors.Is(err, uafcheck.ErrParse):
		st.set("parse-error", "")
		return flightResult{code: http.StatusUnprocessableEntity,
			body: mustJSON(errorBody{Error: err.Error(), Code: CodeParseError})}
	case errors.Is(err, uafcheck.ErrRepairDegraded):
		// The typed refusal: 503 + machine-readable code; writeResult
		// attaches Retry-After to every 5xx. Retrying with a larger
		// max_states or deadline_ms gives the verifier the evidence it
		// was missing.
		st.set("refused", "degraded")
		return flightResult{code: http.StatusServiceUnavailable,
			body: mustJSON(errorBody{Error: err.Error(), Code: CodeRepairDegraded})}
	default:
		return flightResult{code: http.StatusInternalServerError,
			body: mustJSON(errorBody{Error: err.Error()})}
	}

	body, encErr := wire.EncodeRepair(req.Name, rr)
	if encErr != nil {
		return flightResult{code: http.StatusInternalServerError,
			body: mustJSON(errorBody{Error: encErr.Error()})}
	}
	if rr.Clean() {
		st.set("repaired", "")
	} else {
		st.set("repair-partial", "")
	}
	return flightResult{code: http.StatusOK, body: body, ctype: "application/x-ndjson"}
}

// batchSARIF answers a batch request that negotiated SARIF: the files
// are analyzed by the same fault-isolated driver, the results are
// collected instead of streamed (SARIF has no line-oriented form), and
// each file goes through repairForSARIF, the single-shot endpoint's
// best-effort repair rule, so the document embeds verified fixes. The
// whole response is one SARIF 2.1.0 document.
func (s *Server) batchSARIF(w http.ResponseWriter, r *http.Request, files []uafcheck.FileInput, o RequestOptions) {
	t0 := time.Now()
	batchRep := uafcheck.AnalyzeFilesContext(r.Context(), files, append(s.libraryOptions(o),
		uafcheck.WithWorkers(s.cfg.BatchWorkers),
		uafcheck.WithDeadline(s.effectiveDeadline(o)),
		uafcheck.WithRetries(o.Retries),
	)...)
	s.observeAnalysis(t0, len(files), batchRep.Metrics)

	// A disconnected client stops the extra repair work.
	results := make([]wire.Result, len(files))
	repairs := make(map[string]wire.RepairedFile)
	for i, fr := range batchRep.Files {
		results[i] = wire.NewResult(fr.Name, fr.Report, fr.Err, false)
		if r.Context().Err() != nil {
			continue
		}
		req := AnalyzeRequest{Name: fr.Name, Src: files[i].Src, Options: o}
		if rr := s.repairForSARIF(r, req, fr.Report); rr != nil {
			repairs[fr.Name] = wire.RepairedFile{Src: files[i].Src, Report: rr}
		}
	}

	body, err := wire.SARIFWithFixes(results, repairs).EncodeIndent()
	if err != nil {
		s.front.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/sarif+json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(body, '\n')) //nolint:errcheck
}

// -------------------------------------------------------------- delta

// handleDelta serves POST /v1/delta: an NDJSON request stream of
// DeltaRequest lines answered by an NDJSON stream of canonical results,
// one per line, in order. Lines run through the server's Analyzer, so a
// client that re-sends a file after each edit gets incremental
// re-analysis — only the edited procedures are recomputed — with
// responses byte-identical to /v1/analyze for the same input. The
// stream holds one admission slot for its whole lifetime.
//
// Each line runs under batch.Attempt at its effective deadline: the
// analysis context expires and the run degrades, exactly like the
// single-shot endpoint, and an analysis that ignores even that is
// abandoned after the grace and answered with an error line, so a
// stalled line cannot hold the stream. The request context is
// deliberately not the cancellation parent — a disconnect is detected
// between lines, never mid-analysis — but its trace rides along so each
// line's spans join the tree.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	s.active.Add(1)
	defer s.active.Add(-1)
	s.rec.Add(obs.CtrServerRequests, 1)

	if err := s.admit(r.Context()); err != nil {
		s.writeResult(w, s.rejection(err), "")
		return
	}
	defer s.gate.release()

	out := NewNDJSON(w)
	out.Start()
	s.front.ReadDelta(w, r, out.WriteLine, func(_ []byte, req *DeltaRequest) error {
		deadline := s.effectiveDeadline(req.Options)
		lines, hung := batch.Attempt(obs.Detach(r.Context()), deadline, func(ctx context.Context) [][]byte {
			return s.deltaLine(ctx, req)
		})
		if hung {
			// No report: a made-up timed-out report would carry no
			// warnings, not the conservative superset "degraded" promises.
			s.rec.Add(obs.CtrServerDeltaAbandoned, 1)
			stateFrom(r.Context()).set("abandoned", "")
			lines = [][]byte{mustJSON(errorBody{Error: fmt.Sprintf(
				"delta line abandoned: analysis did not return within %v plus grace", deadline)})}
		}
		for _, line := range lines {
			if err := out.WriteLine(line); err != nil {
				return err
			}
		}
		return nil
	})
}

// deltaLine answers one /v1/delta line with its output lines.
func (s *Server) deltaLine(ctx context.Context, req *DeltaRequest) [][]byte {
	if req.moduleMode() {
		return s.deltaModule(ctx, req)
	}
	if req.Src == "" {
		return [][]byte{mustJSON(errorBody{Error: "missing src"})}
	}
	if req.Name == "" {
		req.Name = "input.chpl"
	}
	s.rec.Add(obs.CtrServerDeltaFiles, 1)
	t0 := time.Now()
	rep, err := s.an.AnalyzeDelta(ctx, req.Name, req.Src, s.libraryOptions(req.Options)...)
	s.observeAnalysis(t0, 1, metricsOf(rep))
	return [][]byte{s.resultLine(ctx, req.Name, rep, err, req.Options.Metrics)}
}

// deltaModule answers one module-mode delta line: the full module
// snapshot runs through the server's Analyzer, so only the units whose
// call-graph view changed since the previous snapshot recompute
// (editing a callee re-analyzes exactly its transitive callers), and
// one canonical line per file comes back in input order. Failures
// produce a single typed error line rather than an HTTP error — the
// NDJSON stream is already flowing.
func (s *Server) deltaModule(ctx context.Context, req *DeltaRequest) [][]byte {
	if len(req.Files) == 0 {
		return [][]byte{mustJSON(errorBody{Error: "module delta line missing files"})}
	}
	s.rec.Add(obs.CtrServerDeltaFiles, int64(len(req.Files)))
	lines, err := s.moduleLines(ctx, req.Files, req.Options, s.an.AnalyzeModuleDelta)
	if err != nil {
		return [][]byte{moduleErrorBody(err)}
	}
	return lines
}

// -------------------------------------------------------------- admin

// componentHealth assembles the per-component health rows: the
// admission gate and the report cache's disk tier.
func (s *Server) componentHealth() map[string]ComponentStatus {
	comps := make(map[string]ComponentStatus, 2)

	inflight, queued := s.gate.load()
	admission := ComponentStatus{State: "ok", Detail: map[string]int64{
		"inflight":     int64(inflight),
		"queued":       int64(queued),
		"max_inflight": int64(s.cfg.MaxInflight),
		"queue_depth":  int64(s.cfg.QueueDepth),
	}}
	select {
	case <-s.gate.draining:
		admission.State = "draining"
	default:
	}
	comps["admission"] = admission

	disk := ComponentStatus{State: "off"}
	if s.cfg.Cache != nil {
		st := s.cfg.Cache.Stats()
		disk.State = s.cfg.Cache.DiskState()
		disk.Detail = map[string]int64{
			"disk_errors":    st.DiskErrors,
			"quarantined":    st.Quarantined,
			"dropped_writes": st.DroppedWrites,
		}
	}
	comps["disk_cache"] = disk
	return comps
}

// ------------------------------------------------------------ plumbing

// rejection maps an admission error onto the shared flight result, so
// followers of a rejected leader reuse the same 429/503.
func (s *Server) rejection(err error) flightResult {
	switch {
	case errors.Is(err, errOverload):
		s.rec.Add(obs.CtrServerRejects, 1)
		return flightResult{code: http.StatusTooManyRequests,
			body: mustJSON(errorBody{Error: err.Error()})}
	default: // draining, or the client died while queued
		return flightResult{code: http.StatusServiceUnavailable,
			body: mustJSON(errorBody{Error: err.Error()})}
	}
}

// writeResult renders a flight result. role tags the dedup position
// ("leader"/"follower") for observability; empty omits the header.
func (s *Server) writeResult(w http.ResponseWriter, res flightResult, role string) {
	ctype := res.ctype
	if ctype == "" {
		ctype = "application/json"
	}
	w.Header().Set("Content-Type", ctype)
	if role != "" {
		w.Header().Set("X-Uafserve-Dedup", role)
	}
	if res.cacheHit {
		w.Header().Set("X-Uafserve-Cache", "hit")
	}
	// Every rejection or server-side failure carries retry guidance: a
	// 429 or 503 is overload/drain (come back after the queue clears),
	// and even a 500 is worth one more try rather than an outage page.
	if res.code == http.StatusTooManyRequests || res.code >= 500 {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	w.WriteHeader(res.code)
	// res.body is shared verbatim between the leader and its followers;
	// the newline is written separately so no writer ever appends to
	// (and thereby mutates) the shared backing array.
	w.Write(res.body) //nolint:errcheck
	if n := len(res.body); n == 0 || res.body[n-1] != '\n' {
		w.Write([]byte{'\n'}) //nolint:errcheck
	}
}

// load is the admission load the worker adds to /healthz and /statusz.
func (s *Server) load() map[string]any {
	inflight, queued := s.gate.load()
	return map[string]any{"inflight": inflight, "queued": queued}
}

// retryAfterSeconds estimates when a rejected client should come back:
// the queue's expected drain time under the recent average analysis
// latency, clamped to [1, 30] seconds.
func (s *Server) retryAfterSeconds() int {
	_, queued := s.gate.load()
	ms := s.ewmaMS.Load()
	if ms <= 0 {
		ms = 100
	}
	secs := int((ms*int64(queued+1)/int64(s.cfg.MaxInflight) + 999) / 1000)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}
