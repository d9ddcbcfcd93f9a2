package obs

import (
	"bytes"
	"encoding/json"
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
	r.Absorb(Metrics{Counters: map[string]int64{CtrWarnings: 1}})
	if m := r.Snapshot(); len(m.Hists) != 0 || len(m.Counters) != 0 || len(m.Gauges) != 0 {
		t.Fatalf("nil recorder produced data: %+v", m)
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
	if names := m.HistNames(); len(names) != 1 || names[0] != "phase_ns|phase=parse" || m.Hists[names[0]].Count != 1 {
		t.Errorf("hists = %+v, want one phase_ns|phase=parse observation", m.Hists)
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

// A snapshot's trace spans own their Attrs maps: mutating one leaves
// the recorder's next snapshot unchanged.
func TestSnapshotCopiesTraceAttrs(t *testing.T) {
	r := New()
	r.SetTrace([]TraceSpan{{Name: "file", Attrs: map[string]string{"name": "a.chpl"}}})
	m := r.Snapshot()
	m.Trace[0].Attrs["name"] = "changed"
	m.Trace[0].Attrs["extra"] = "added"
	if got := r.Snapshot().Trace[0].Attrs; len(got) != 1 || got["name"] != "a.chpl" {
		t.Errorf("recorder trace attrs = %v after mutating a snapshot, want map[name:a.chpl]", got)
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
				r.Absorb(Metrics{Counters: map[string]int64{CtrWarnings: 1}})
				end()
			}
		}()
	}
	wg.Wait()
	m := r.Snapshot()
	if got := m.Counter(CtrStatesProcessed); got != 800 {
		t.Errorf("states_processed = %d, want 800", got)
	}
	if got := m.Counter(CtrWarnings); got != 800 {
		t.Errorf("absorbed warnings = %d, want 800", got)
	}
	if got := m.Hist(phaseHistKey(PhaseExplore)).Count; got != 800 {
		t.Errorf("pps-explore timings = %d, want 800", got)
	}
}

// phaseHist is a phase_ns histogram of the given run durations.
func phaseHist(durs ...time.Duration) Histogram {
	var h Histogram
	for _, d := range durs {
		h.Observe(d.Nanoseconds())
	}
	return h
}

func TestMetricsMerge(t *testing.T) {
	var agg Metrics
	agg.Merge(Metrics{
		Counters: map[string]int64{CtrWarnings: 2},
		Gauges:   map[string]int64{GaugePeakFrontier: 5},
		Hists:    map[string]Histogram{phaseHistKey(PhaseParse): phaseHist(time.Millisecond)},
	})
	agg.Merge(Metrics{
		Counters: map[string]int64{CtrWarnings: 3},
		Gauges:   map[string]int64{GaugePeakFrontier: 4},
		Hists:    map[string]Histogram{phaseHistKey(PhaseParse): phaseHist(2 * time.Millisecond)},
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

func sampleMetrics() Metrics {
	return Metrics{
		Counters: map[string]int64{CtrStatesCreated: 11, CtrCCFGNodes: 12},
		Gauges:   map[string]int64{GaugePeakFrontier: 4},
		Hists: map[string]Histogram{
			phaseHistKey(PhaseParse):   phaseHist(120 * time.Microsecond),
			phaseHistKey(PhaseExplore): phaseHist(time.Millisecond, time.Millisecond),
		},
	}
}

func TestTextSink(t *testing.T) {
	out := sampleMetrics().FormatText()
	for _, want := range []string{
		"phase timings:", "parse", "pps-explore", "2ms  (2 runs)  p50=", " p90=",
		"counters:", "ccfg.nodes", "pps.states_created",
		"gauges:", "pps.peak_frontier",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// Phase timings are not repeated among the histograms.
	if strings.Contains(out, HistPhaseNS) {
		t.Errorf("phase_ns family listed among the histograms:\n%s", out)
	}
	// Counters render sorted: ccfg.nodes before pps.states_created.
	if strings.Index(out, "ccfg.nodes") > strings.Index(out, "pps.states_created") {
		t.Errorf("counters not sorted:\n%s", out)
	}
}

// FormatText lists phase timings in pipeline order, whatever their
// names' sort order; a phase outside the pipeline follows by name.
func TestFormatTextPhaseOrder(t *testing.T) {
	m := Metrics{Hists: map[string]Histogram{}}
	for _, name := range append([]string{"zeta-phase", "alpha-phase"}, phaseOrder...) {
		m.Hists[phaseHistKey(name)] = phaseHist(time.Microsecond)
	}
	m.Hists[HistWaveSize] = phaseHist(3) // not a phase
	text, _, _ := strings.Cut(m.FormatText(), "histograms:")
	var got []string
	for _, line := range strings.Split(text, "\n")[1:] {
		if f := strings.Fields(line); len(f) > 0 {
			got = append(got, f[0])
		}
	}
	want := append(append([]string(nil), phaseOrder...), "alpha-phase", "zeta-phase")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("phase timings listed as %v, want %v", got, want)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleMetrics().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // 2 counters + 1 gauge + 2 phase_ns histograms
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), buf.String())
	}
	types := map[string]int{}
	for _, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad JSON line %q: %v", ln, err)
		}
		types[rec["type"].(string)]++
	}
	if types["counter"] != 2 || types["gauge"] != 1 || types["hist"] != 2 || len(types) != 3 {
		t.Errorf("record types = %v", types)
	}
	if want := `{"type":"hist","name":"phase_ns|phase=pps-explore","count":2,`; !strings.Contains(buf.String(), want) {
		t.Errorf("JSONL output missing %s:\n%s", want, buf.String())
	}
}

func TestPromSink(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleMetrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE uafcheck_phase_ns histogram",
		`uafcheck_phase_ns_count{phase="parse"} 1`,
		`uafcheck_phase_ns_sum{phase="pps-explore"} 2000000`,
		"# TYPE uafcheck_pps_states_created counter",
		"uafcheck_pps_states_created 11",
		"uafcheck_pps_peak_frontier 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "phase_seconds") {
		t.Errorf("prom output still has a phase_seconds family:\n%s", out)
	}
	if err := ValidatePromText(buf.Bytes()); err != nil {
		t.Errorf("prometheus lint failed: %v", err)
	}
}

func TestSpanTimesAreSane(t *testing.T) {
	r := New()
	end := r.Span(PhaseOracle)
	time.Sleep(2 * time.Millisecond)
	end()
	m := r.Snapshot()
	h := m.Hist(phaseHistKey(PhaseOracle))
	if h.Count != 1 || time.Duration(h.Sum) < time.Millisecond {
		t.Fatalf("oracle timing too small: %+v", h)
	}
	if m.PhaseTotal(PhaseOracle) != time.Duration(h.Sum) {
		t.Fatalf("PhaseTotal mismatch")
	}
}

// finishedRun records a small run: two phase timings, a counter, a
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
	m := r.Finish()
	want := fmt.Sprintf("%+v", m)
	if len(m.Hists) != 3 || m.Counter(CtrWarnings) != 2 || m.Gauge(GaugePeakFrontier) != 3 ||
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
	if s := r.Snapshot(); s.Hists[phaseHistKey(PhaseParse)].Count != 1 || s.Counter(CtrWarnings) != 2 || s.Hists[HistWaveSize].Count != 2 {
		t.Errorf("second run snapshot = %+v", s)
	}
}

// Finish on an empty recorder gives Snapshot's shape: non-nil, empty
// Counters and Gauges; nil Hists and Trace.
func TestFinishEmptyMatchesSnapshot(t *testing.T) {
	r := New()
	m := r.Finish()
	if got, want := fmt.Sprintf("%#v", m), fmt.Sprintf("%#v", New().Snapshot()); got != want {
		t.Errorf("Finish = %s, want %s", got, want)
	}
	if m.Counters == nil || m.Gauges == nil {
		t.Error("empty Finish returned nil Counters or Gauges")
	}
	var nilRec *Recorder
	if m := nilRec.Finish(); m.Counters != nil || m.Hists != nil {
		t.Errorf("nil Finish = %+v", m)
	}
}

// The precomputed phase keys are exactly what HistKey builds.
func TestPhaseHistKey(t *testing.T) {
	for _, name := range append([]string{"custom-phase"}, phaseOrder...) {
		if got, want := phaseHistKey(name), HistKey(HistPhaseNS, "phase", name); got != want {
			t.Errorf("phaseHistKey(%q) = %q, want %q", name, got, want)
		}
	}
}
