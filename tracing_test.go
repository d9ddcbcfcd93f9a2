package uafcheck

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"uafcheck/internal/corpus"
	"uafcheck/internal/obs"
)

// stripNondeterministic removes the wall-clock histogram families and
// the span tree from a metrics value, leaving only data that must be
// byte-identical across runs and parallelism levels.
func stripNondeterministic(m *Metrics) {
	for name := range m.Hists {
		if obs.HistNondeterministic(name) {
			delete(m.Hists, name)
		}
	}
	if len(m.Hists) == 0 {
		m.Hists = nil
	}
	m.Trace = nil
}

// TestTracingSpanTree is the end-to-end span contract: one traced
// analysis yields a single tree rooted at the file span, with the
// frontend phases, per-procedure spans, and PPS wave spans correctly
// parented.
func TestTracingSpanTree(t *testing.T) {
	src := loadTestdata(t, "figure1.chpl")
	rep, err := AnalyzeContext(context.Background(), "figure1.chpl", src, WithTracing(true))
	if err != nil {
		t.Fatal(err)
	}
	spans := rep.Metrics.Trace
	if len(spans) == 0 {
		t.Fatal("WithTracing(true) produced no spans")
	}

	wantID := obs.DeriveTraceID("uafcheck/file", "figure1.chpl", src).String()
	byID := make(map[string]obs.TraceSpan, len(spans))
	names := make(map[string][]obs.TraceSpan)
	for _, sp := range spans {
		if sp.TraceID != wantID {
			t.Fatalf("span %s has trace id %s, want derived %s", sp.Name, sp.TraceID, wantID)
		}
		byID[sp.SpanID] = sp
		names[sp.Name] = append(names[sp.Name], sp)
	}

	for _, want := range []string{"file", obs.PhaseParse, obs.PhaseResolve, "proc",
		obs.PhaseLower, obs.PhaseCCFG, obs.PhaseExplore, "pps-wave"} {
		if len(names[want]) == 0 {
			t.Errorf("no %q span recorded; got %d spans", want, len(spans))
		}
	}
	if len(names["file"]) != 1 {
		t.Fatalf("want exactly one file root span, got %d", len(names["file"]))
	}
	root := names["file"][0]
	if root.Parent != "" {
		t.Errorf("file span has parent %q", root.Parent)
	}
	if root.Attrs["name"] != "figure1.chpl" {
		t.Errorf("file span attrs = %v", root.Attrs)
	}

	// Every non-root span's parent must exist, and walking parents must
	// reach the root (a tree, not a forest).
	for _, sp := range spans {
		if sp.SpanID == root.SpanID {
			continue
		}
		cur, hops := sp, 0
		for cur.Parent != "" && hops < len(spans)+1 {
			next, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %s has dangling parent %s", cur.Name, cur.Parent)
			}
			cur, hops = next, hops+1
		}
		if cur.SpanID != root.SpanID {
			t.Errorf("span %s does not chain to the file root", sp.Name)
		}
	}
	// Wave spans parent into the exploration phase.
	explore := names[obs.PhaseExplore][0]
	for _, w := range names["pps-wave"] {
		if w.Parent != explore.SpanID {
			t.Errorf("pps-wave parented to %s, want pps-explore %s", w.Parent, explore.SpanID)
		}
		if w.Attrs["size"] == "" {
			t.Errorf("pps-wave span missing size attr: %v", w.Attrs)
		}
	}
}

// TestTracingDoesNotChangeResults: the analysis outcome (warnings,
// notes, stats, counters, deterministic histograms) is byte-identical
// with tracing on and off — tracing only adds the span tree and
// wall-clock histograms.
func TestTracingDoesNotChangeResults(t *testing.T) {
	src := loadTestdata(t, "figure1.chpl")
	plain, err := AnalyzeContext(context.Background(), "figure1.chpl", src)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := AnalyzeContext(context.Background(), "figure1.chpl", src, WithTracing(true))
	if err != nil {
		t.Fatal(err)
	}
	canon := func(rep *Report) []byte {
		cp := rep.Clone()
		stripNondeterministic(&cp.Metrics)
		b, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := canon(plain), canon(traced); !bytes.Equal(a, b) {
		t.Errorf("tracing changed the canonical report:\nplain:  %s\ntraced: %s", a, b)
	}
}

// TestTracingAmbientTraceWins: when the caller's context already
// carries a trace (the server case), analysis spans attach to it and
// the report does not grow its own tree.
func TestTracingAmbientTraceWins(t *testing.T) {
	src := loadTestdata(t, "figure1.chpl")
	tr := obs.NewTrace(obs.DeriveTraceID("ambient"))
	ctx := obs.ContextWithTrace(context.Background(), tr)
	ctx, req := obs.StartSpan(ctx, "request")

	rep, err := AnalyzeContext(ctx, "figure1.chpl", src, WithTracing(true))
	req.End()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics.Trace) != 0 {
		t.Errorf("report owns %d spans despite ambient trace", len(rep.Metrics.Trace))
	}
	spans := tr.Spans()
	var haveFile, haveWave bool
	for _, sp := range spans {
		switch sp.Name {
		case "file":
			haveFile = true
			if sp.Parent != req.SpanID().String() {
				t.Errorf("file span parent = %q, want request %q", sp.Parent, req.SpanID())
			}
		case "pps-wave":
			haveWave = true
		}
	}
	if !haveFile || !haveWave {
		t.Errorf("ambient trace missing analysis spans (file=%v wave=%v, %d total)",
			haveFile, haveWave, len(spans))
	}
}

// TestHistogramDeterminism pins satellite guarantee: aggregated
// deterministic histogram families (PPS wave sizes) render to
// byte-identical Prometheus text at every parallelism level, and
// metrics merge order does not matter.
func TestHistogramDeterminism(t *testing.T) {
	cases := corpus.Generate(corpus.Params{
		Seed: 7, Tests: 40, BeginTests: 16,
		UnsafeTests: 4, TrueSites: 8, AtomicFPTests: 4, FalseSites: 10,
	})
	render := func(par int, reverse bool) []byte {
		t.Helper()
		var reps []*Report
		for _, c := range cases {
			rep, err := AnalyzeContext(context.Background(), c.Name, c.Source,
				WithParallelism(par))
			if err != nil {
				continue
			}
			reps = append(reps, rep)
		}
		if len(reps) < 20 {
			t.Fatalf("only %d analyzable corpus cases", len(reps))
		}
		if reverse {
			for i, j := 0, len(reps)-1; i < j; i, j = i+1, j-1 {
				reps[i], reps[j] = reps[j], reps[i]
			}
		}
		var agg Metrics
		for _, rep := range reps {
			agg.Merge(rep.Metrics)
		}
		stripNondeterministic(&agg)
		if agg.Hist(obs.HistWaveSize).Empty() {
			t.Fatal("corpus produced no wave-size observations")
		}
		var buf bytes.Buffer
		if err := agg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	want := render(1, false)
	for _, par := range []int{4, 0} {
		if got := render(par, false); !bytes.Equal(want, got) {
			t.Errorf("parallelism %d changed deterministic histogram output:\nwant:\n%s\ngot:\n%s",
				par, want, got)
		}
	}
	if got := render(1, true); !bytes.Equal(want, got) {
		t.Errorf("merge order changed histogram output:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestCacheHitRecordsLookupHistogram: cache hits surface their lookup
// latency as a cache.lookup_ns observation and never resurrect a span
// tree from the stored report.
func TestCacheHitRecordsLookupHistogram(t *testing.T) {
	src := loadTestdata(t, "figure1.chpl")
	c := NewCache(CacheConfig{})
	opts := []Option{WithCache(c), WithTracing(true)}
	first, err := AnalyzeContext(context.Background(), "figure1.chpl", src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Metrics.Trace) == 0 {
		t.Fatal("miss run recorded no spans")
	}
	second, err := AnalyzeContext(context.Background(), "figure1.chpl", src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if second.Metrics.Counter(obs.CtrCacheHits) != 1 {
		t.Fatalf("second run not a cache hit: %v", second.Metrics.Counters)
	}
	if len(second.Metrics.Trace) != 0 {
		t.Errorf("cache hit resurrected %d spans", len(second.Metrics.Trace))
	}
	if h := second.Metrics.Hist(obs.HistCacheLookupNS); h.Count != 1 {
		t.Errorf("cache hit lookup histogram = %+v, want one observation", h)
	}
}
