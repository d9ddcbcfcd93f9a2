package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"uafcheck"
	"uafcheck/internal/obs"
)

// Front is the HTTP layer every uafserve role mounts — single process,
// worker and cluster coordinator alike: the tracing middleware with its
// per-route latency histograms and flight recorder, the JSON error
// envelope, body decoding under the body limit, SARIF negotiation, and
// the admin pages /healthz, /statusz, /livez, /metrics and
// /debug/requests. A role plugs in only what is its own through Role,
// so every role answers these surfaces with the same code.
type Front struct {
	role      Role
	start     time.Time
	flightrec *flightRecorder
	// traceSeq numbers requests that arrive without a traceparent; the
	// derived trace IDs are unique per request and reproducible within
	// one process run.
	traceSeq atomic.Uint64
}

// Role is what a process supplies to its Front.
type Role struct {
	// Mode labels the process on /healthz and /statusz ("single",
	// "worker" or "coordinator").
	Mode string
	// Rec receives the per-route server.request_ns histograms.
	Rec *obs.Recorder
	// MaxBodyBytes bounds a decoded request body.
	MaxBodyBytes int64
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// Components returns the health rows /healthz and /statusz fold
	// into the readiness verdict (see healthState).
	Components func() map[string]ComponentStatus
	// Metrics is what /metrics renders; /statusz derives its per-route
	// latency quantiles from it, so it must include Rec.
	Metrics func() obs.Metrics
	// RetryAfter estimates, in seconds, when a client turned away with
	// a 429, a 5xx or an unready /healthz should come back.
	RetryAfter func() int
	// Healthz and Statusz add role-specific top-level fields to those
	// pages (nil = none).
	Healthz, Statusz func() map[string]any
}

// NewFront builds the HTTP front for a role.
func NewFront(r Role) *Front {
	return &Front{role: r, start: time.Now(), flightrec: newFlightRecorder(flightRecorderSize)}
}

// Mount registers the admin pages on mux.
func (f *Front) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.HandleFunc("GET /livez", handleLivez)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("GET /debug/requests", f.handleDebugRequests)
	mux.HandleFunc("GET /statusz", f.handleStatusz)
	if f.role.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// Traced wraps a route with the request-scoped observability layer: it
// adopts the caller's W3C traceparent (or derives a fresh trace ID),
// roots the request's span tree, carries both on the request context
// so the library stack attaches its phase and wave spans, echoes the
// traceparent on the response, records the request latency on the
// per-route histogram, and files a digest with the flight recorder when
// the request completes.
func (f *Front) Traced(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tid, remoteParent, hasRemote := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if !hasRemote {
			tid = obs.DeriveTraceID("uafserve/request",
				strconv.FormatInt(f.start.UnixNano(), 36),
				strconv.FormatUint(f.traceSeq.Add(1), 36))
		}
		// Other processes (the edge, the workers it fans out to) record
		// spans under the same trace ID; salted span IDs keep them apart.
		tr := obs.NewDistributedTrace(tid)
		ctx := obs.ContextWithTrace(r.Context(), tr)
		if hasRemote {
			ctx = obs.ContextWithParentSpan(ctx, remoteParent)
		}
		ctx, root := obs.StartSpan(ctx, "request")
		root.SetAttr("route", route)
		st := &reqState{}
		ctx = context.WithValue(ctx, reqStateKey{}, st)

		w.Header().Set("traceparent", obs.FormatTraceparent(tid, root.SpanID()))
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h(sw, r.WithContext(ctx))
		dur := time.Since(t0)
		root.SetAttrInt("status", int64(sw.status()))
		root.End()

		f.role.Rec.Observe(obs.HistKey(obs.HistRequestNS, "route", route), dur.Nanoseconds())
		recs := tr.Records()
		st.mu.Lock()
		d := RequestDigest{
			TraceID:      tid.String(),
			Route:        route,
			Status:       sw.status(),
			Start:        t0,
			DurMS:        dur.Milliseconds(),
			Outcome:      st.outcome,
			Degraded:     st.degraded,
			Dedup:        st.dedup,
			CacheHit:     st.cacheHit,
			Phases:       digestPhases(recs.Each),
			SpanCount:    recs.Len(),
			DroppedSpans: tr.Dropped(),
			records:      recs,
		}
		st.mu.Unlock()
		if d.Outcome == "" {
			d.Outcome = outcomeForStatus(d.Status)
		}
		f.flightrec.add(d)
	}
}

// outcomeForStatus is the fallback classification when the handler
// recorded nothing richer.
func outcomeForStatus(code int) string {
	switch {
	case code == http.StatusUnprocessableEntity:
		return "parse-error"
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		return "rejected"
	case code >= 500:
		return "error"
	default:
		return "ok"
	}
}

// statusWriter records the status code written through it. It passes
// http.Flusher through so the NDJSON streaming endpoints keep flushing
// per line.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sw *statusWriter) status() int {
	if sw.code == 0 {
		return http.StatusOK
	}
	return sw.code
}

// WantsSARIF is the content negotiation for the analyze endpoints:
// either `?format=sarif` or an Accept header naming
// application/sarif+json selects the SARIF 2.1.0 projection.
func WantsSARIF(r *http.Request) bool {
	if r.URL.Query().Get("format") == "sarif" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/sarif+json")
}

// DecodeBody parses the JSON request body into dst, answering 400/413
// itself on failure.
func (f *Front) DecodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, f.role.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			f.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		f.WriteError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return false
	}
	return true
}

// ReadDelta reads a /v1/delta request stream under the body limit and
// hands each non-blank line to line, raw and decoded, in order. A
// malformed line is answered on emit with the error envelope instead.
// A failed read (a body over the limit, a broken connection) ends the
// stream with one envelope naming it; the line it cut short is dropped,
// not reported as malformed. Reading stops early when emit or line
// returns an error, which ReadDelta returns, or when the request ends.
func (f *Front) ReadDelta(w http.ResponseWriter, r *http.Request, emit func([]byte) error, line func(raw []byte, req *DeltaRequest) error) error {
	br := bufio.NewReader(http.MaxBytesReader(w, r.Body, f.role.MaxBodyBytes))
	for r.Context().Err() == nil {
		raw, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			if r.Context().Err() == nil {
				return emit(mustJSON(errorBody{Error: "reading delta stream: " + err.Error()}))
			}
			return nil
		}
		if raw = bytes.TrimSpace(raw); len(raw) > 0 {
			var req DeltaRequest
			lerr := json.Unmarshal(raw, &req)
			if lerr != nil {
				lerr = emit(mustJSON(errorBody{Error: "malformed delta line: " + lerr.Error()}))
			} else {
				lerr = line(raw, &req)
			}
			if lerr != nil {
				return lerr
			}
		}
		if err == io.EOF {
			return nil
		}
	}
	return nil
}

// WriteError answers with the JSON error envelope. Every rejection or
// server-side failure carries retry guidance: a 429 or 503 is
// overload/drain (come back after the queue clears), and even a 500 is
// worth one more try rather than an outage page.
func (f *Front) WriteError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests || code >= 500 {
		w.Header().Set("Retry-After", strconv.Itoa(f.role.RetryAfter()))
	}
	w.WriteHeader(code)
	w.Write(append(mustJSON(errorBody{Error: msg}), '\n')) //nolint:errcheck
}

// errorBody is the JSON error envelope of non-200 responses. Code,
// when set, is a stable machine-readable refusal class (e.g.
// "repair_degraded") so clients branch on identity instead of matching
// message strings — the HTTP mirror of the library's typed sentinels.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// mustJSON marshals values that cannot fail (plain structs and maps of
// marshalable types).
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))
	}
	return b
}

// -------------------------------------------------------------- admin

// healthState folds component rows into the overall readiness verdict:
// "ok" (200), "degraded" (200 — still serving, capacity impaired), or
// unready (503) when draining or when a component reports "unready" (a
// coordinator with no live worker).
func healthState(comps map[string]ComponentStatus) (status string, code int) {
	status, code = "ok", http.StatusOK
	for _, c := range comps {
		switch c.State {
		case "draining", "unready":
			return c.State, http.StatusServiceUnavailable
		case "ok", "off":
		default:
			status = "degraded"
		}
	}
	return status, code
}

// page renders a /healthz or /statusz body: the shared fields, then the
// role's extras.
func page(fields map[string]any, extras func() map[string]any) []byte {
	if extras != nil {
		for k, v := range extras() {
			fields[k] = v
		}
	}
	return append(mustJSON(fields), '\n')
}

func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	comps := f.role.Components()
	status, code := healthState(comps)
	body := page(map[string]any{
		"status":     status,
		"mode":       f.role.Mode,
		"version":    uafcheck.Version,
		"components": comps,
	}, f.role.Healthz)
	if code != http.StatusOK {
		// Overload guidance on every unready answer: a probe or naive
		// client should come back, not give up — and no 5xx leaves
		// without Retry-After.
		w.Header().Set("Retry-After", strconv.Itoa(f.role.RetryAfter()))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body) //nolint:errcheck
}

func handleLivez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"status\":\"alive\"}\n")) //nolint:errcheck
}

func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	f.role.Metrics().WritePrometheus(w) //nolint:errcheck
}

// handleDebugRequests serves the flight recorder. Without parameters it
// lists recent request digests newest-first (span trees elided to a
// count); ?trace=<hex id> returns the matching digest with its full
// span tree inlined; ?limit=N truncates the listing.
func (f *Front) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if id := r.URL.Query().Get("trace"); id != "" {
		d, ok := f.flightrec.byTrace(id)
		if !ok {
			f.WriteError(w, http.StatusNotFound, "no recorded request with trace "+id)
			return
		}
		d.Spans = d.records.Spans()
		w.Write(append(mustJSON(d), '\n')) //nolint:errcheck
		return
	}
	digests := f.flightrec.snapshot()
	if lim, err := strconv.Atoi(r.URL.Query().Get("limit")); err == nil && lim >= 0 && lim < len(digests) {
		digests = digests[:lim]
	}
	w.Write(append(mustJSON(map[string]any{
		"requests": digests,
		"capacity": len(f.flightrec.ring),
	}), '\n')) //nolint:errcheck
}

// routeStatus is one per-route row of /statusz.
type routeStatus struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
}

// handleStatusz serves a one-page operational summary: version, uptime,
// health, per-route latency quantiles derived from the
// server.request_ns histograms, and flight-recorder occupancy.
func (f *Front) handleStatusz(w http.ResponseWriter, r *http.Request) {
	m := f.role.Metrics()
	routes := make(map[string]routeStatus)
	for _, name := range m.HistNames() {
		family, labels := obs.SplitHistKey(name)
		if family != obs.HistRequestNS {
			continue
		}
		route := ""
		for _, kv := range labels {
			if kv[0] == "route" {
				route = kv[1]
			}
		}
		h := m.Hist(name)
		const ms = 1e6
		routes[route] = routeStatus{
			Count: h.Count,
			P50MS: h.Quantile(0.50) / ms,
			P90MS: h.Quantile(0.90) / ms,
			P99MS: h.Quantile(0.99) / ms,
		}
	}
	comps := f.role.Components()
	status, _ := healthState(comps)
	w.Header().Set("Content-Type", "application/json")
	w.Write(page(map[string]any{ //nolint:errcheck
		"version":    uafcheck.Version,
		"mode":       f.role.Mode,
		"uptime_s":   int64(time.Since(f.start).Seconds()),
		"status":     status,
		"routes":     routes,
		"components": comps,
		"flight_recorder": map[string]int{
			"recorded": len(f.flightrec.snapshot()),
			"capacity": len(f.flightrec.ring),
		},
		"pprof": f.role.Pprof,
	}, f.role.Statusz))
}
