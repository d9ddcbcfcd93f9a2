// Request-scoped distributed tracing: hierarchical spans with
// deterministic IDs, carried through context.Context, interoperable
// with W3C traceparent at HTTP boundaries.
//
// Traces complement the Recorder's phase_ns histogram: a Recorder span
// is an aggregate timing observation, a TraceSpan belongs to one request (or
// one CLI run) and knows its parent, so a single /v1/analyze request
// can be reconstructed as a tree — server handler → file analysis →
// per-procedure phases → PPS waves → cache lookups.
//
// Determinism: trace IDs are either ingested from the caller's
// traceparent header or derived by hashing stable content
// (DeriveTraceID), and span IDs are a per-trace sequence counter, so
// replaying the same input through the same build yields the same tree
// shape and the same IDs (only wall-clock offsets differ). The one
// exception is NewDistributedTrace: a trace several processes record
// spans into under one trace ID gets a random per-trace prefix on its
// span IDs, so the processes' sequences do not collide.
//
// Everything is nil-safe the same way the Recorder is: StartSpan on a
// context without a trace returns a nil *ActiveSpan whose methods are
// no-ops, so library code traces unconditionally and pays one
// context.Value lookup when tracing is off.
package obs

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 16-byte W3C trace identifier.
type TraceID [16]byte

// SpanID is an 8-byte W3C span identifier.
type SpanID [8]byte

// IsZero reports whether the ID is all zeroes (invalid per W3C).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is all zeroes (invalid per W3C).
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID decodes a 32-hex-digit trace ID; ok is false for
// malformed or all-zero input.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, !id.IsZero()
}

// ParseSpanID decodes a 16-hex-digit span ID; ok is false for malformed
// or all-zero input.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 16 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, false
	}
	return id, !id.IsZero()
}

// DeriveTraceID builds a deterministic trace ID by hashing the given
// parts (length-prefixed, so ("ab","c") and ("a","bc") differ). The
// same inputs always produce the same ID — the property that lets a
// CLI rerun or a test look up "the" trace of a file without plumbing
// IDs around.
func DeriveTraceID(parts ...string) TraceID {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write([]byte(p))
	}
	var id TraceID
	copy(id[:], h.Sum(nil))
	if id.IsZero() {
		id[15] = 1 // all-zero is invalid per W3C; astronomically unlikely
	}
	return id
}

// ---------------------------------------------------------------- traceparent

// ParseTraceparent parses a W3C traceparent header
// ("00-<trace-id>-<parent-id>-<flags>"). ok is false for malformed
// headers, unknown versions, or all-zero IDs.
func ParseTraceparent(h string) (TraceID, SpanID, bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, false
	}
	if h[0] != '0' || h[1] != '0' {
		return TraceID{}, SpanID{}, false // only version 00 is understood
	}
	if len(h) != 55 {
		return TraceID{}, SpanID{}, false // version 00 has no trailing fields
	}
	tid, ok := ParseTraceID(h[3:35])
	if !ok {
		return TraceID{}, SpanID{}, false
	}
	sid, ok := ParseSpanID(h[36:52])
	if !ok {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.DecodeString(h[53:55]); err != nil {
		return TraceID{}, SpanID{}, false
	}
	return tid, sid, true
}

// FormatTraceparent renders a version-00 traceparent header with the
// sampled flag set.
func FormatTraceparent(tid TraceID, sid SpanID) string {
	return "00-" + tid.String() + "-" + sid.String() + "-01"
}

// ---------------------------------------------------------------- trace

// TraceSpan is one completed span of a trace — the rendered form
// flight-recorder digests, Metrics.Trace, and the JSONL trace file
// carry. A Trace stores its spans compactly and builds TraceSpans only
// when they are read.
type TraceSpan struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	// Parent is the parent span's ID; empty for a root span (or a span
	// whose parent lives in the remote caller).
	Parent string        `json:"parent_id,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	// Attrs carries small structured annotations (wave sizes, file
	// names, hit/miss outcomes). Values are strings so the JSON form is
	// stable.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// DefaultTraceSpans caps the spans one trace retains; later spans are
// counted as dropped rather than growing without bound (a pathological
// input can run thousands of PPS waves).
const DefaultTraceSpans = 4096

// maxSpanAttrs is how many distinct attribute keys one span keeps.
const maxSpanAttrs = 3

// spanAttr is one typed span attribute: a string value, or an integer
// kept as an integer until the span is rendered. Which of the two it is
// lives in its span's spanRec.ints mask.
type spanAttr struct {
	key string
	str string
	num int64
}

// spanRec is one completed span as a trace stores it, in 56 bytes. Its
// nattr attributes follow those of the spans recorded before it in the
// trace's attribute slab. The trace ID is kept once per trace, and IDs
// stay binary until the span is rendered.
type spanRec struct {
	id, parent SpanID
	name       string
	start, dur time.Duration
	nattr      uint8
	// ints has bit i set when attribute i is an integer.
	ints uint8
}

// Trace collects the spans of one request or run. Safe for concurrent
// use; span IDs are a sequence counter so they are deterministic given
// a deterministic span creation order.
type Trace struct {
	id   TraceID
	t0   time.Time
	next atomic.Uint64
	// salt fills the high half of every span ID (0 for NewTrace).
	salt uint64

	mu      sync.Mutex
	recs    []spanRec
	attrs   []spanAttr
	dropped int64
}

// NewTrace creates an empty trace with the given ID, retaining at most
// DefaultTraceSpans spans.
func NewTrace(id TraceID) *Trace {
	return &Trace{id: id, t0: time.Now()}
}

// NewDistributedTrace is NewTrace for one process's share of a trace
// that other processes also record spans into — a request served by a
// cluster edge and the workers it fans out to. Each span ID carries a
// random 32-bit prefix drawn once per trace above the sequence number,
// so span IDs stay unique across the processes of one trace and still
// sort in creation order within each.
func NewDistributedTrace(id TraceID) *Trace {
	t := NewTrace(id)
	t.salt = uint64(rand.Uint32()) << 32
	return t
}

// ID returns the trace's identifier.
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// Dropped returns how many completed spans were discarded because the
// trace hit its span cap.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans renders the completed spans ordered by start offset (ties
// broken by span ID, which encodes creation order).
func (t *Trace) Spans() []TraceSpan {
	return t.Records().Spans()
}

// Records returns an exact-sized copy of the spans completed so far, in
// their compact stored form. Spans that end later do not reach it.
func (t *Trace) Records() SpanSet {
	if t == nil {
		return SpanSet{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return SpanSet{id: t.id, recs: slices.Clone(t.recs), attrs: slices.Clone(t.attrs)}
}

// newSpanID hands out the next sequential span ID (1, 2, 3, ...,
// under the salt).
func (t *Trace) newSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], t.salt|t.next.Add(1))
	return id
}

// record appends a completed span, honoring the span cap.
func (t *Trace) record(sp *ActiveSpan, dur time.Duration) {
	t.mu.Lock()
	if len(t.recs) >= DefaultTraceSpans {
		t.dropped++
	} else {
		t.recs = append(t.recs, spanRec{id: sp.id, parent: sp.parent, name: sp.name,
			start: sp.start, dur: dur, nattr: sp.nattr, ints: sp.ints})
		t.attrs = append(t.attrs, sp.attrs[:sp.nattr]...)
	}
	t.mu.Unlock()
}

// SpanSet is an immutable copy of a trace's completed spans in the
// trace's compact form (see Trace.Records): what a long-lived holder,
// such as uafserve's flight recorder, keeps instead of rendered spans.
// The zero value is an empty set.
type SpanSet struct {
	id    TraceID
	recs  []spanRec
	attrs []spanAttr
}

// Len returns the number of spans in the set.
func (s SpanSet) Len() int { return len(s.recs) }

// Each calls fn with the name and duration of every span, in the order
// they completed, without rendering them.
func (s SpanSet) Each(fn func(name string, dur time.Duration)) {
	for _, r := range s.recs {
		fn(r.name, r.dur)
	}
}

// Spans renders the set ordered by start offset (ties broken by span
// ID, which encodes creation order). Every call builds fresh spans, so
// a caller may modify what it gets.
func (s SpanSet) Spans() []TraceSpan {
	if len(s.recs) == 0 {
		return nil
	}
	tid := s.id.String()
	out := make([]TraceSpan, len(s.recs))
	attrs := s.attrs
	for i, r := range s.recs {
		sp := TraceSpan{TraceID: tid, SpanID: r.id.String(), Name: r.name, Start: r.start, Dur: r.dur}
		if !r.parent.IsZero() {
			sp.Parent = r.parent.String()
		}
		if r.nattr > 0 {
			sp.Attrs = make(map[string]string, r.nattr)
			for j, a := range attrs[:r.nattr] {
				if r.ints&(1<<j) != 0 {
					sp.Attrs[a.key] = strconv.FormatInt(a.num, 10)
				} else {
					sp.Attrs[a.key] = a.str
				}
			}
			attrs = attrs[r.nattr:]
		}
		out[i] = sp
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// ---------------------------------------------------------------- context

type traceCtxKey struct{}
type spanCtxKey struct{}

// ContextWithTrace returns a context carrying the trace; child spans
// started from it attach to the trace. A nil ctx is treated as
// context.Background().
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tr)
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return tr
}

// ContextWithParentSpan marks sid as the parent for the next StartSpan.
// Used at the HTTP boundary to parent the server's root span under the
// remote caller's span from traceparent.
func ContextWithParentSpan(ctx context.Context, sid SpanID) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanCtxKey{}, sid)
}

// CurrentSpanID returns the span ID the context is inside of, if any.
func CurrentSpanID(ctx context.Context) (SpanID, bool) {
	if ctx == nil {
		return SpanID{}, false
	}
	// StartSpan stores the span itself, which costs no allocation to
	// box; ContextWithParentSpan stores a bare ID.
	switch v := ctx.Value(spanCtxKey{}).(type) {
	case *ActiveSpan:
		return v.id, true
	case SpanID:
		return v, true
	}
	return SpanID{}, false
}

// Detach returns a fresh context (no deadline, no cancellation) that
// still carries ctx's trace and current span. Handlers that must
// outlive the request context (uafserve's singleflight leaders) use
// this so their analysis spans stay in the request's trace.
func Detach(ctx context.Context) context.Context {
	out := context.Background()
	if tr := TraceFrom(ctx); tr != nil {
		out = ContextWithTrace(out, tr)
	}
	if sid, ok := CurrentSpanID(ctx); ok {
		out = ContextWithParentSpan(out, sid)
	}
	return out
}

// ActiveSpan is an in-flight span. All methods are nil-safe so callers
// can trace unconditionally:
//
//	ctx, sp := obs.StartSpan(ctx, "parse")
//	defer sp.End()
type ActiveSpan struct {
	tr     *Trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Duration

	mu    sync.Mutex
	done  bool
	nattr uint8
	ints  uint8
	attrs [maxSpanAttrs]spanAttr
}

// StartSpan opens a span named name if ctx carries a trace. The name
// should be a constant: the trace keeps it as given. The returned
// context parents subsequent StartSpan calls under the new span.
// Without a trace it returns (ctx, nil) — and a nil *ActiveSpan's
// methods are no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	tr := TraceFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	sp := &ActiveSpan{
		tr:    tr,
		id:    tr.newSpanID(),
		name:  name,
		start: time.Since(tr.t0),
	}
	if parent, ok := CurrentSpanID(ctx); ok {
		sp.parent = parent
	}
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// SpanID returns the span's ID (zero for a nil span).
func (sp *ActiveSpan) SpanID() SpanID {
	if sp == nil {
		return SpanID{}
	}
	return sp.id
}

// SetAttr attaches a string annotation to the span. The value is
// copied, so a value sliced out of a larger string (a name out of a
// source file) does not keep that string alive in a retained trace;
// the key should be a constant. A span keeps at most three keys: a
// fourth distinct key is ignored, and after End the span no longer
// changes.
func (sp *ActiveSpan) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.setAttr(spanAttr{key: key, str: strings.Clone(value)}, false)
}

// SetAttrInt attaches an integer annotation to the span, on the terms
// of SetAttr.
func (sp *ActiveSpan) SetAttrInt(key string, value int64) {
	if sp == nil {
		return
	}
	sp.setAttr(spanAttr{key: key, num: value}, true)
}

func (sp *ActiveSpan) setAttr(a spanAttr, isInt bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.done {
		return
	}
	i := uint8(0)
	for i < sp.nattr && sp.attrs[i].key != a.key {
		i++
	}
	if i == maxSpanAttrs {
		return
	}
	if i == sp.nattr {
		sp.nattr++
	}
	sp.attrs[i] = a
	if isInt {
		sp.ints |= 1 << i
	} else {
		sp.ints &^= 1 << i
	}
}

// End completes the span and records it on its trace. Calling End more
// than once (or on a nil span) is a no-op.
func (sp *ActiveSpan) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.done {
		sp.mu.Unlock()
		return
	}
	sp.done = true
	sp.mu.Unlock()
	// done is set, so no SetAttr changes the attributes record reads.
	sp.tr.record(sp, time.Since(sp.tr.t0)-sp.start)
}

// StartPhase opens a Recorder span and a trace span with the same name
// and returns a single closer for both — the one-liner the pipeline's
// phase boundaries use so the phase_ns histogram and the request tree
// stay in sync. Either side may be absent (nil Recorder, traceless ctx).
func StartPhase(ctx context.Context, r *Recorder, name string) (context.Context, func()) {
	endSpan := r.Span(name)
	ctx, sp := StartSpan(ctx, name)
	if sp == nil {
		return ctx, endSpan
	}
	return ctx, func() {
		sp.End()
		endSpan()
	}
}
