package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	end := r.Span(PhaseParse)
	end()
	r.Add(CtrCCFGNodes, 5)
	r.Max(GaugePeakFrontier, 9)
	if m := r.Snapshot(); len(m.Spans) != 0 || len(m.Counters) != 0 || len(m.Gauges) != 0 {
		t.Fatalf("nil recorder produced data: %+v", m)
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("nil flush: %v", err)
	}
}

func TestRecorderCountersGaugesSpans(t *testing.T) {
	r := New()
	end := r.Span(PhaseParse)
	end()
	r.Add(CtrStatesCreated, 3)
	r.Add(CtrStatesCreated, 4)
	r.Add(CtrStatesMerged, 0) // zero deltas are dropped
	r.Max(GaugePeakFrontier, 2)
	r.Max(GaugePeakFrontier, 7)
	r.Max(GaugePeakFrontier, 5)

	m := r.Snapshot()
	if got := m.Counter(CtrStatesCreated); got != 7 {
		t.Errorf("states_created = %d, want 7", got)
	}
	if _, ok := m.Counters[CtrStatesMerged]; ok {
		t.Errorf("zero-delta counter materialized")
	}
	if got := m.Gauge(GaugePeakFrontier); got != 7 {
		t.Errorf("peak_frontier = %d, want 7", got)
	}
	if len(m.Spans) != 1 || m.Spans[0].Name != PhaseParse {
		t.Errorf("spans = %+v", m.Spans)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	r := New()
	r.Add(CtrWarnings, 1)
	m := r.Snapshot()
	m.Counters[CtrWarnings] = 99
	if got := r.Snapshot().Counter(CtrWarnings); got != 1 {
		t.Fatalf("snapshot aliases recorder state: %d", got)
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				end := r.Span(PhaseExplore)
				r.Add(CtrStatesProcessed, 1)
				r.Max(GaugePeakFrontier, int64(j))
				end()
			}
		}()
	}
	wg.Wait()
	m := r.Snapshot()
	if got := m.Counter(CtrStatesProcessed); got != 800 {
		t.Errorf("states_processed = %d, want 800", got)
	}
	if len(m.Spans) != 800 {
		t.Errorf("spans = %d, want 800", len(m.Spans))
	}
}

func TestMetricsMerge(t *testing.T) {
	var agg Metrics
	agg.Merge(Metrics{
		Counters: map[string]int64{CtrWarnings: 2},
		Gauges:   map[string]int64{GaugePeakFrontier: 5},
		Spans:    []Span{{Name: PhaseParse, Dur: time.Millisecond}},
	})
	agg.Merge(Metrics{
		Counters: map[string]int64{CtrWarnings: 3},
		Gauges:   map[string]int64{GaugePeakFrontier: 4},
		Spans:    []Span{{Name: PhaseParse, Dur: 2 * time.Millisecond}},
	})
	if agg.Counter(CtrWarnings) != 5 {
		t.Errorf("merged counter = %d, want 5", agg.Counter(CtrWarnings))
	}
	if agg.Gauge(GaugePeakFrontier) != 5 {
		t.Errorf("merged gauge = %d, want 5 (max)", agg.Gauge(GaugePeakFrontier))
	}
	if agg.PhaseTotal(PhaseParse) != 3*time.Millisecond {
		t.Errorf("phase total = %v", agg.PhaseTotal(PhaseParse))
	}
}

// TestMergeTotalsRendersLikeMerge folds the same reports with Merge and
// with MergeTotals. The folded aggregate keeps one span per phase and
// no trace spans, and PromSink renders both byte for byte alike.
func TestMergeTotalsRendersLikeMerge(t *testing.T) {
	var hist Histogram
	hist.Observe(3)
	reports := []Metrics{
		{
			Spans: []Span{
				{Name: PhaseParse, Start: 5 * time.Microsecond, Dur: 120 * time.Microsecond},
				{Name: PhaseExplore, Start: 300 * time.Microsecond, Dur: time.Millisecond},
				{Name: PhaseExplore, Start: 2 * time.Millisecond, Dur: 700 * time.Microsecond},
			},
			Counters: map[string]int64{CtrStatesCreated: 11},
			Hists:    map[string]Histogram{HistWaveSize: hist},
			Trace:    []TraceSpan{{TraceID: "t1", SpanID: "s1", Name: "request"}},
		},
		{
			// A later report whose phases start in another order: the
			// first start seen still decides each phase's position.
			Spans: []Span{
				{Name: PhaseResolve, Start: 0, Dur: 90 * time.Microsecond},
				{Name: PhaseExplore, Start: time.Microsecond, Dur: 333 * time.Microsecond},
				{Name: PhaseParse, Start: 2 * time.Microsecond, Dur: 77 * time.Microsecond},
			},
			Counters: map[string]int64{CtrStatesCreated: 4, CtrWarnings: 1},
			Gauges:   map[string]int64{GaugePeakFrontier: 6},
			Hists:    map[string]Histogram{HistWaveSize: hist},
			Trace:    []TraceSpan{{TraceID: "t2", SpanID: "s2", Name: "request"}},
		},
	}
	var unfolded, folded Metrics
	for i := 0; i < 50; i++ {
		for _, r := range reports {
			unfolded.Merge(r)
			folded.MergeTotals(r)
		}
	}
	if len(folded.Spans) != 3 {
		t.Errorf("folded aggregate holds %d spans, want one per phase (3): %v", len(folded.Spans), folded.Spans)
	}
	if folded.Trace != nil {
		t.Errorf("folded aggregate keeps %d trace spans", len(folded.Trace))
	}
	if got, want := folded.PhaseTotal(PhaseExplore), unfolded.PhaseTotal(PhaseExplore); got != want {
		t.Errorf("folded explore total = %v, want %v", got, want)
	}
	var a, b bytes.Buffer
	PromSink{W: &a}.Emit(unfolded) //nolint:errcheck
	PromSink{W: &b}.Emit(folded)   //nolint:errcheck
	if a.String() != b.String() {
		t.Errorf("PromSink output differs\nMerge:\n%s\nMergeTotals:\n%s", a.String(), b.String())
	}
}

func sampleMetrics() Metrics {
	return Metrics{
		Spans: []Span{
			{Name: PhaseParse, Start: 0, Dur: 120 * time.Microsecond},
			{Name: PhaseExplore, Start: 200 * time.Microsecond, Dur: time.Millisecond},
			{Name: PhaseExplore, Start: 2 * time.Millisecond, Dur: time.Millisecond},
		},
		Counters: map[string]int64{CtrStatesCreated: 11, CtrCCFGNodes: 12},
		Gauges:   map[string]int64{GaugePeakFrontier: 4},
	}
}

func TestTextSink(t *testing.T) {
	var buf bytes.Buffer
	if err := (TextSink{W: &buf}).Emit(sampleMetrics()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"phase timings:", "parse", "pps-explore", "(2 spans)",
		"counters:", "ccfg.nodes", "pps.states_created",
		"gauges:", "pps.peak_frontier",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// Counters render sorted: ccfg.nodes before pps.states_created.
	if strings.Index(out, "ccfg.nodes") > strings.Index(out, "pps.states_created") {
		t.Errorf("counters not sorted:\n%s", out)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	if err := (JSONLSink{W: &buf}).Emit(sampleMetrics()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 { // 3 spans + 2 counters + 1 gauge
		t.Fatalf("lines = %d, want 6:\n%s", len(lines), buf.String())
	}
	types := map[string]int{}
	for _, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad JSON line %q: %v", ln, err)
		}
		types[rec["type"].(string)]++
	}
	if types["span"] != 3 || types["counter"] != 2 || types["gauge"] != 1 {
		t.Errorf("record types = %v", types)
	}
}

func TestPromSink(t *testing.T) {
	var buf bytes.Buffer
	if err := (PromSink{W: &buf}).Emit(sampleMetrics()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`uafcheck_phase_seconds{phase="parse"}`,
		"# TYPE uafcheck_pps_states_created counter",
		"uafcheck_pps_states_created 11",
		"uafcheck_pps_peak_frontier 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestSpanTimesAreSane(t *testing.T) {
	r := New()
	end := r.Span(PhaseOracle)
	time.Sleep(2 * time.Millisecond)
	end()
	m := r.Snapshot()
	if len(m.Spans) != 1 || m.Spans[0].Dur < time.Millisecond {
		t.Fatalf("span duration too small: %+v", m.Spans)
	}
	if m.PhaseTotal(PhaseOracle) != m.Spans[0].Dur {
		t.Fatalf("PhaseTotal mismatch")
	}
}

// finishedRun records a small run: two phase spans, a counter, a
// gauge, a histogram and a trace.
func finishedRun(r *Recorder) {
	r.Span(PhaseParse)()
	r.Span(PhaseResolve)()
	r.Add(CtrWarnings, 2)
	r.Max(GaugePeakFrontier, 3)
	r.Observe(HistWaveSize, 4)
	r.SetTrace([]TraceSpan{{Name: "file"}})
}

// Finish hands the state over: writes to the recorder afterwards start
// from empty and never reach the returned Metrics.
func TestFinishHandsStateOver(t *testing.T) {
	r := New()
	finishedRun(r)
	m, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%+v", m)
	if len(m.Spans) != 2 || m.Counter(CtrWarnings) != 2 || m.Gauge(GaugePeakFrontier) != 3 ||
		m.Hists[HistWaveSize].Count != 1 || m.Hists[phaseHistKey(PhaseParse)].Count != 1 ||
		len(m.Trace) != 1 {
		t.Fatalf("Finish returned %s", want)
	}

	finishedRun(r)
	r.Add(CtrProcsAnalyzed, 1)
	r.ObserveHist(HistWaveSize, Histogram{Count: 1, Sum: 1})
	if got := fmt.Sprintf("%+v", m); got != want {
		t.Errorf("writes after Finish changed its result:\n%s\nwant\n%s", got, want)
	}
	// The recorder restarted from empty: the second run is all it holds.
	if s := r.Snapshot(); len(s.Spans) != 2 || s.Counter(CtrWarnings) != 2 || s.Hists[HistWaveSize].Count != 2 {
		t.Errorf("second run snapshot = %+v", s)
	}
}

// Finish on an empty recorder gives Snapshot's shape: non-nil, empty
// Counters and Gauges; nil Spans, Hists and Trace.
func TestFinishEmptyMatchesSnapshot(t *testing.T) {
	r := New()
	m, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%#v", m), fmt.Sprintf("%#v", New().Snapshot()); got != want {
		t.Errorf("Finish = %s, want %s", got, want)
	}
	if m.Counters == nil || m.Gauges == nil {
		t.Error("empty Finish returned nil Counters or Gauges")
	}
	var nilRec *Recorder
	if m, err := nilRec.Finish(); err != nil || m.Counters != nil || m.Spans != nil {
		t.Errorf("nil Finish = %+v, %v", m, err)
	}
}

// recordingSink keeps every Metrics it is given.
type recordingSink struct{ got []Metrics }

func (s *recordingSink) Emit(m Metrics) error {
	s.got = append(s.got, m)
	return nil
}

type failingSink struct{ err error }

func (s failingSink) Emit(Metrics) error { return s.err }

// Every sink receives exactly the Metrics the caller got, once, as its
// own copy, and the first sink error is returned.
func TestFinishEmitsCallersMetrics(t *testing.T) {
	a, b := &recordingSink{}, &recordingSink{}
	boom := errors.New("boom")
	r := New(a, failingSink{boom}, b, failingSink{errors.New("second")})
	finishedRun(r)
	m, err := r.Finish()
	if err != boom {
		t.Errorf("Finish error = %v, want the first sink error", err)
	}
	want := fmt.Sprintf("%+v", m)
	for i, s := range []*recordingSink{a, b} {
		if len(s.got) != 1 {
			t.Fatalf("sink %d received %d emits, want 1", i, len(s.got))
		}
		if got := fmt.Sprintf("%+v", s.got[0]); got != want {
			t.Errorf("sink %d received\n%s\nwant\n%s", i, got, want)
		}
	}
	// The caller owns its Metrics: changing them leaves the sinks' alone.
	m.Counters[CtrWarnings] = 99
	m.Gauges[GaugePeakFrontier] = 99
	m.Hists[HistWaveSize] = Histogram{}
	m.Spans[0].Name = "changed"
	m.Trace[0].Name = "changed"
	for i, s := range []*recordingSink{a, b} {
		if got := fmt.Sprintf("%+v", s.got[0]); got != want {
			t.Errorf("sink %d's Metrics changed with the caller's:\n%s\nwant\n%s", i, got, want)
		}
	}
}

// The precomputed phase keys are exactly what HistKey builds.
func TestPhaseHistKey(t *testing.T) {
	for _, name := range []string{PhaseParse, PhaseResolve, PhaseSummaries, PhaseLower,
		PhaseCCFG, PhasePrune, PhaseExplore, PhaseOracle, PhaseBatch, "custom-phase"} {
		if got, want := phaseHistKey(name), HistKey(HistPhaseNS, "phase", name); got != want {
			t.Errorf("phaseHistKey(%q) = %q, want %q", name, got, want)
		}
	}
}
