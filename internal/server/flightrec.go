package server

import (
	"context"
	"sync"
	"time"

	"uafcheck/internal/obs"
)

// flightRecorderSize is the digest ring capacity of every front.
const flightRecorderSize = 256

// RequestDigest is one completed request as the flight recorder saw it:
// enough to reconstruct what the server did and why, without holding
// request or response bodies.
type RequestDigest struct {
	// TraceID identifies the request's span tree; GET
	// /debug/requests?trace=<id> returns this digest with Spans
	// populated.
	TraceID string `json:"trace_id"`
	// Route is the matched route pattern (e.g. "/v1/analyze").
	Route string `json:"route"`
	// Status is the HTTP status code written.
	Status int `json:"status"`
	// Start is the wall-clock admission time.
	Start time.Time `json:"start"`
	// DurMS is the total request wall clock in milliseconds.
	DurMS int64 `json:"dur_ms"`
	// Outcome classifies how the request ended: "ok", "degraded",
	// "parse-error", "rejected", "error", or "" when the handler
	// recorded nothing (admin routes).
	Outcome string `json:"outcome,omitempty"`
	// Degraded carries the degradation reason when Outcome is
	// "degraded".
	Degraded string `json:"degraded,omitempty"`
	// Dedup is the singleflight role ("leader"/"follower") on analyze
	// requests.
	Dedup string `json:"dedup,omitempty"`
	// CacheHit reports whether the report cache served the result.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Phases breaks the request down by phase — the analysis phases,
	// admission and wire-encode — in milliseconds, summed over the
	// trace's kept phase spans: spans past the cap are not in it.
	Phases map[string]int64 `json:"phases_ms,omitempty"`
	// SpanCount is the size of the recorded span tree; Spans itself is
	// only inlined when a single digest is requested by trace ID.
	SpanCount int             `json:"span_count"`
	Spans     []obs.TraceSpan `json:"spans,omitempty"`
	// DroppedSpans counts the spans the trace discarded once it held
	// obs.DefaultTraceSpans.
	DroppedSpans int64 `json:"dropped_spans,omitempty"`

	// records is the span tree as the ring keeps it; Spans is rendered
	// from it on request.
	records obs.SpanSet
}

// flightRecorder is a bounded ring of request digests: the last N
// requests, newest first on read. Writers never block readers for long —
// the ring holds completed, immutable digests.
type flightRecorder struct {
	mu   sync.Mutex
	ring []RequestDigest
	next int
	full bool
}

func newFlightRecorder(size int) *flightRecorder {
	return &flightRecorder{ring: make([]RequestDigest, size)}
}

func (f *flightRecorder) add(d RequestDigest) {
	f.mu.Lock()
	f.ring[f.next] = d
	f.next = (f.next + 1) % len(f.ring)
	if f.next == 0 {
		f.full = true
	}
	f.mu.Unlock()
}

// snapshot returns the recorded digests newest-first.
func (f *flightRecorder) snapshot() []RequestDigest {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.next
	if f.full {
		n = len(f.ring)
	}
	out := make([]RequestDigest, 0, n)
	for i := 0; i < n; i++ {
		// Walk backwards from the most recently written slot.
		idx := (f.next - 1 - i + len(f.ring)) % len(f.ring)
		out = append(out, f.ring[idx])
	}
	return out
}

// byTrace returns the newest digest with the given trace ID.
func (f *flightRecorder) byTrace(id string) (RequestDigest, bool) {
	for _, d := range f.snapshot() {
		if d.TraceID == id {
			return d, true
		}
	}
	return RequestDigest{}, false
}

// reqState is the per-request annotation slot the traced middleware
// stashes in the context; handlers fill in what only they know (outcome,
// dedup role, cache hit) and the middleware folds it into the digest.
type reqState struct {
	mu       sync.Mutex
	outcome  string
	degraded string
	dedup    string
	cacheHit bool
}

func (st *reqState) set(outcome, degraded string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.outcome = outcome
	st.degraded = degraded
	st.mu.Unlock()
}

func (st *reqState) setDedup(role string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.dedup = role
	st.mu.Unlock()
}

func (st *reqState) setCacheHit() {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.cacheHit = true
	st.mu.Unlock()
}

type reqStateKey struct{}

func stateFrom(ctx context.Context) *reqState {
	st, _ := ctx.Value(reqStateKey{}).(*reqState)
	return st
}

// digestPhases sums span durations by phase name, keeping only the
// analysis phases, admission and wire-encode (depth-independent: nested
// phase spans each contribute their own duration). each calls its
// argument once per span. Totals are summed in nanoseconds and
// converted to milliseconds once, so many short spans still add up.
func digestPhases(each func(fn func(name string, dur time.Duration))) map[string]int64 {
	var ns map[string]time.Duration
	each(func(name string, dur time.Duration) {
		switch name {
		case obs.PhaseAdmission, obs.PhaseParse, obs.PhaseResolve, obs.PhaseSummaries,
			obs.PhaseCCFG, obs.PhasePrune, obs.PhaseLower, obs.PhaseExplore, obs.PhaseWireEncode:
		default:
			return
		}
		if ns == nil {
			ns = make(map[string]time.Duration)
		}
		ns[name] += dur
	})
	if ns == nil {
		return nil
	}
	out := make(map[string]int64, len(ns))
	for name, d := range ns {
		out[name] = d.Milliseconds()
	}
	return out
}
