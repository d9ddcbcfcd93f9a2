package uafcheck

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uafcheck/internal/ccfg"
	"uafcheck/internal/ir"
	"uafcheck/internal/obs"
	"uafcheck/internal/parser"
	"uafcheck/internal/pps"
	"uafcheck/internal/source"
	"uafcheck/internal/sym"
)

func loadTestdata(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// checkCounters asserts exact golden values; every named counter must
// match and no unnamed counter may be nonzero.
func checkCounters(t *testing.T, m Metrics, want map[string]int64) {
	t.Helper()
	for name, v := range want {
		if got := m.Counter(name); got != v {
			t.Errorf("counter %s = %d, want %d", name, got, v)
		}
	}
	for _, name := range m.CounterNames() {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected nonzero counter %s = %d", name, m.Counter(name))
		}
	}
}

// TestMetricsGoldenFigure1 pins the exact pipeline counters for the
// paper's Figure 1 program: the CCFG shape, the pruning outcome (rule A
// removes the printf-only task) and the PPS exploration counts. Any
// change to the exploration order or the merge optimization shows up
// here as an exact-number diff.
func TestMetricsGoldenFigure1(t *testing.T) {
	src := loadTestdata(t, "figure1.chpl")
	rep, err := AnalyzeContext(context.Background(), "figure1.chpl", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 1 {
		t.Fatalf("warnings = %d, want 1", len(rep.Warnings))
	}
	checkCounters(t, rep.Metrics, map[string]int64{
		obs.CtrProcsAnalyzed:   1,
		obs.CtrWarnings:        1,
		obs.CtrCCFGNodes:       11,
		obs.CtrCCFGTasks:       4,
		obs.CtrCCFGSyncVars:    2,
		obs.CtrTrackedAccesses: 4,
		obs.CtrPrunedTasks:     1,
		obs.CtrPruneRuleA:      1,
		obs.CtrStatesCreated:   8,
		obs.CtrStatesProcessed: 8,
		obs.CtrStatesMerged:    3,
		obs.CtrStatesForked:    11,
		obs.CtrSinkStates:      1,
		obs.CtrPPSWaves:        5,
		obs.CtrTransRead:       5,
		obs.CtrTransWrite:      5,
	})
	if got := rep.Metrics.Gauge(obs.GaugePeakFrontier); got != 2 {
		t.Errorf("peak frontier = %d, want 2", got)
	}
	// -stats consistency by construction: ProcStats must agree with the
	// metrics snapshot, since both now flow from the same Stats structs.
	if len(rep.Stats) != 1 {
		t.Fatalf("Stats = %d entries, want 1", len(rep.Stats))
	}
	ps := rep.Stats[0]
	if int64(ps.StatesCreated) != rep.Metrics.Counter(obs.CtrStatesCreated) {
		t.Errorf("ProcStats.StatesCreated = %d, metrics say %d",
			ps.StatesCreated, rep.Metrics.Counter(obs.CtrStatesCreated))
	}
}

// TestMetricsGoldenFigure6 pins the counters for the branching example
// (Figure 6): no task is prunable, three sink states, and the merge
// optimization collapses six states.
func TestMetricsGoldenFigure6(t *testing.T) {
	src := loadTestdata(t, "figure6.chpl")
	rep, err := AnalyzeContext(context.Background(), "figure6.chpl", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 1 {
		t.Fatalf("warnings = %d, want 1", len(rep.Warnings))
	}
	checkCounters(t, rep.Metrics, map[string]int64{
		obs.CtrProcsAnalyzed:   1,
		obs.CtrWarnings:        1,
		obs.CtrCCFGNodes:       11,
		obs.CtrCCFGTasks:       3,
		obs.CtrCCFGSyncVars:    1,
		obs.CtrTrackedAccesses: 1,
		obs.CtrStatesCreated:   9,
		obs.CtrStatesProcessed: 12,
		obs.CtrStatesMerged:    5,
		obs.CtrStatesForked:    14,
		obs.CtrSinkStates:      2,
		obs.CtrPPSWaves:        5,
		obs.CtrTransRead:       6,
		obs.CtrTransWrite:      6,
	})
}

// TestMetricsGoldenFigure1Safe: the repaired program produces no
// warnings and a single linear exploration (no merges, frontier 1).
func TestMetricsGoldenFigure1Safe(t *testing.T) {
	src := loadTestdata(t, "figure1_safe.chpl")
	rep, err := AnalyzeContext(context.Background(), "figure1_safe.chpl", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 0 {
		t.Fatalf("warnings = %d, want 0", len(rep.Warnings))
	}
	m := rep.Metrics
	for name, want := range map[string]int64{
		obs.CtrStatesCreated: 5,
		obs.CtrStatesMerged:  0,
		obs.CtrSinkStates:    1,
	} {
		if got := m.Counter(name); got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if got := m.Gauge(obs.GaugePeakFrontier); got != 1 {
		t.Errorf("peak frontier = %d, want 1", got)
	}
}

// TestDisableMergeCreatesMoreStates: switching off the §III-C merge
// optimization must create strictly more states on a program whose
// exploration has converging interleavings.
func TestDisableMergeCreatesMoreStates(t *testing.T) {
	src := loadTestdata(t, "figure6.chpl")
	merged, err := AnalyzeContext(context.Background(), "figure6.chpl", src)
	if err != nil {
		t.Fatal(err)
	}
	unmerged, err := AnalyzeContext(context.Background(), "figure6.chpl", src, WithMergeDisabled(true))
	if err != nil {
		t.Fatal(err)
	}
	mc := merged.Metrics.Counter(obs.CtrStatesCreated)
	uc := unmerged.Metrics.Counter(obs.CtrStatesCreated)
	if uc <= mc {
		t.Errorf("DisableMerge states created = %d, want strictly more than %d", uc, mc)
	}
	if unmerged.Metrics.Counter(obs.CtrStatesMerged) != 0 {
		t.Errorf("DisableMerge still merged %d states",
			unmerged.Metrics.Counter(obs.CtrStatesMerged))
	}
	// Both configurations must report the same warnings — merging is an
	// optimization, not an abstraction change.
	if lw, lu := len(merged.Warnings), len(unmerged.Warnings); lw != lu {
		t.Errorf("warning count changed with DisableMerge: %d vs %d", lw, lu)
	}
}

// TestWarningProvenance: explain mode must attach a provenance chain to
// the Figure 1 warning — the access node, a concrete sink PPS, and a
// nonempty transition chain ending at that sink.
func TestWarningProvenance(t *testing.T) {
	src := loadTestdata(t, "figure1.chpl")
	rep, err := AnalyzeContext(context.Background(), "figure1.chpl", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 1 {
		t.Fatalf("warnings = %d, want 1", len(rep.Warnings))
	}
	p := rep.Warnings[0].Prov
	if p == nil {
		t.Fatal("warning has no provenance")
	}
	if p.Node == "" {
		t.Error("provenance has empty CCFG node description")
	}
	if p.SinkPPS < 0 {
		t.Errorf("provenance sink PPS = %d, want a concrete state id", p.SinkPPS)
	}
	if p.Stuck {
		t.Error("figure1 sink should not be a deadlock state")
	}
	if len(p.Chain) == 0 {
		t.Error("provenance transition chain is empty")
	}
	if !strings.Contains(p.Node, rep.Warnings[0].Var) {
		t.Errorf("provenance node %q does not mention variable %q",
			p.Node, rep.Warnings[0].Var)
	}
}

// TestMetricsSinksReceiveSnapshot renders one report's Metrics through
// its three renderers: text, JSON lines and Prometheus.
func TestMetricsSinksReceiveSnapshot(t *testing.T) {
	src := loadTestdata(t, "figure1.chpl")
	rep, err := AnalyzeContext(context.Background(), "figure1.chpl", src)
	if err != nil {
		t.Fatal(err)
	}
	var jsonl, prom bytes.Buffer
	if err := rep.Metrics.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := rep.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := rep.Metrics.FormatText()
	if !strings.Contains(text, "pps.states_created") || !strings.Contains(text, "pps-explore") {
		t.Errorf("text rendering missing a counter or phase timing:\n%s", text)
	}
	// Each JSONL line must be a standalone JSON object.
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	var sawCreated bool
	for _, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", ln, err)
		}
		if rec["name"] == "pps.states_created" {
			sawCreated = true
			if int64(rec["value"].(float64)) != rep.Metrics.Counter(obs.CtrStatesCreated) {
				t.Errorf("JSONL states_created = %v, metrics say %d",
					rec["value"], rep.Metrics.Counter(obs.CtrStatesCreated))
			}
		}
	}
	if !sawCreated {
		t.Error("JSONL rendering never emitted pps.states_created")
	}
	if !strings.Contains(prom.String(), "uafcheck_pps_states_created 8") {
		t.Errorf("prom rendering missing exact counter:\n%s", prom.String())
	}
	if err := obs.ValidatePromText(prom.Bytes()); err != nil {
		t.Errorf("prom rendering fails the lint: %v", err)
	}
}

// TestReportMetricsShape pins the whole shape of a single run's
// Report.Metrics: counter names and values, gauges, and histogram keys
// (phase timings among them) with their observation counts. A begin-free
// file still gets non-nil, empty Counters and Gauges maps, so callers
// may write into them.
func TestReportMetricsShape(t *testing.T) {
	type shape struct {
		counters map[string]int64
		gauges   map[string]int64
		hists    map[string]int64
	}
	cases := []struct {
		name, src string
		want      shape
	}{
		{"figure1.chpl", loadTestdata(t, "figure1.chpl"), shape{
			counters: map[string]int64{
				"analysis.procs": 1, "analysis.warnings": 1,
				"ccfg.nodes": 11, "ccfg.sync_vars": 2, "ccfg.tasks": 4, "ccfg.tracked_accesses": 4,
				"pps.sinks": 1, "pps.states_created": 8, "pps.states_forked": 11,
				"pps.states_merged": 3, "pps.states_processed": 8,
				"pps.trans_read": 5, "pps.trans_write": 5, "pps.waves": 5,
				"prune.rule_a": 1, "prune.tasks": 1,
			},
			gauges: map[string]int64{"pps.peak_frontier": 2},
			hists: map[string]int64{
				"phase_ns|phase=ccfg-build": 1, "phase_ns|phase=lower": 1,
				"phase_ns|phase=parse": 1, "phase_ns|phase=pps-explore": 1,
				"phase_ns|phase=prune": 1, "phase_ns|phase=resolve": 1,
				"pps.wave_size": 5,
			},
		}},
		{"plain.chpl", "proc main() {\n  var x: int = 1;\n  writeln(x);\n}\n", shape{
			counters: map[string]int64{},
			gauges:   map[string]int64{},
			hists:    map[string]int64{"phase_ns|phase=parse": 1, "phase_ns|phase=resolve": 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := AnalyzeContext(context.Background(), tc.name, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			m := rep.Metrics
			got := shape{counters: m.Counters, gauges: m.Gauges, hists: map[string]int64{}}
			for k, h := range m.Hists {
				got.hists[k] = h.Count
			}
			if m.Counters == nil || m.Gauges == nil {
				t.Errorf("Counters nil %v, Gauges nil %v; want non-nil maps", m.Counters == nil, m.Gauges == nil)
			}
			if m.Trace != nil {
				t.Errorf("Trace = %v, want nil without tracing", m.Trace)
			}
			for _, c := range []struct {
				what      string
				got, want map[string]int64
			}{
				{"counters", got.counters, tc.want.counters},
				{"gauges", got.gauges, tc.want.gauges},
				{"histogram counts", got.hists, tc.want.hists},
			} {
				// fmt prints maps with sorted keys.
				if g, w := fmt.Sprint(c.got), fmt.Sprint(c.want); g != w {
					t.Errorf("%s = %s, want %s", c.what, g, w)
				}
			}
		})
	}
}

// TestModuleMetricsSummariesSpan: a module run bills its summary
// fixpoint to its own "summaries" span and phase_ns histogram, between
// the module-wide resolve and the first lowering; resolve runs once.
func TestModuleMetricsSummariesSpan(t *testing.T) {
	tr := obs.NewTrace(obs.DeriveTraceID("module-summaries"))
	ctx := obs.ContextWithTrace(context.Background(), tr)
	mr, err := AnalyzeModuleContext(ctx, []FileInput{
		{Name: "leaf.chpl", Src: "proc leaf(ref v: int) {\n  begin with (ref v) {\n    v = v + 1;\n  }\n}\n"},
		{Name: "main.chpl", Src: "proc main() {\n  var x: int = 0;\n  leaf(x);\n}\n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var spans []string // the phase spans, in start order
	for _, sp := range tr.Spans() {
		if _, ok := mr.Metrics.Hists[obs.HistKey(obs.HistPhaseNS, "phase", sp.Name)]; ok {
			spans = append(spans, sp.Name)
		}
	}
	if got, want := fmt.Sprint(spans[:min(len(spans), 5)]), "[parse parse resolve summaries lower]"; got != want {
		t.Errorf("leading spans = %s, want %s (all: %v)", got, want, spans)
	}
	for _, phase := range []string{obs.PhaseResolve, obs.PhaseSummaries} {
		key := obs.HistKey(obs.HistPhaseNS, "phase", phase)
		if h, ok := mr.Metrics.Hists[key]; !ok || h.Count != 1 {
			t.Errorf("%s observed %d times, want once", key, h.Count)
		}
	}
}

// TestAbsorbOnReports folds the traced reports of the suite programs,
// each twice, into a recorder the way a long-lived aggregate (uafserve,
// watch) does. In either order the recorder's counters, gauges and
// histograms equal those of Merge over the same reports, and it keeps
// no trace.
func TestAbsorbOnReports(t *testing.T) {
	paths, err := filepath.Glob("testdata/suite/*.chpl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no suite programs: %v", err)
	}
	var reps []Metrics
	for round := 0; round < 2; round++ {
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := AnalyzeContext(context.Background(), filepath.Base(p), string(src), WithTracing(true))
			if err != nil {
				continue // the suite keeps a few frontend-error programs
			}
			reps = append(reps, rep.Metrics)
		}
	}
	var merged Metrics
	for _, m := range reps {
		merged.Merge(m)
	}
	if len(merged.Trace) == 0 {
		t.Fatal("traced reports carried no trace spans")
	}
	want := fmt.Sprint(merged.Counters, merged.Gauges, merged.Hists)
	for _, reverse := range []bool{false, true} {
		rec := obs.New()
		for i := range reps {
			if reverse {
				i = len(reps) - 1 - i
			}
			rec.Absorb(reps[i])
		}
		got := rec.Snapshot()
		if s := fmt.Sprint(got.Counters, got.Gauges, got.Hists); s != want {
			t.Errorf("reverse=%v: Absorb gave\n%s\nwant (Merge)\n%s", reverse, s, want)
		}
		if got.Trace != nil {
			t.Errorf("reverse=%v: recorder keeps %d trace spans", reverse, len(got.Trace))
		}
	}
}

// buildGraph runs the frontend once so the alloc test can call
// pps.Explore directly, isolating the hot loop from parser allocations.
func buildGraph(t testing.TB, name string) *ccfg.Graph {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	file := source.NewFile(name, string(data))
	diags := &source.Diagnostics{}
	mod := parser.Parse(file, diags)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	info := sym.Resolve(mod, diags)
	if diags.HasErrors() {
		t.Fatalf("resolve: %v", diags)
	}
	for _, proc := range mod.Procs {
		prog := ir.Lower(info, proc, diags)
		return ccfg.Build(prog, diags, ccfg.BuildOptions{Prune: true})
	}
	t.Fatal("no proc found")
	return nil
}

// TestExploreNilObsNoExtraAllocs: the nil-recorder path must not add
// allocations to the PPS hot loop, and attaching a recorder may only
// add a small constant (the end-of-run flush), independent of how many
// states the exploration visits.
func TestExploreNilObsNoExtraAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting in -short mode")
	}
	deltas := make(map[string]float64)
	for _, name := range []string{"figure1.chpl", "figure6.chpl"} {
		g := buildGraph(t, name)
		base := testing.AllocsPerRun(50, func() {
			pps.Explore(g, pps.Options{})
		})
		rec := obs.New()
		withObs := testing.AllocsPerRun(50, func() {
			pps.Explore(g, pps.Options{Obs: rec})
		})
		delta := withObs - base
		deltas[name] = delta
		// The recorder's cost is one span closure plus one batch of
		// counter-map updates at flush time: bounded, not per-state.
		if delta > 64 {
			t.Errorf("%s: recorder added %.0f allocs/run (base %.0f), want <= 64",
				name, delta, base)
		}
	}
	// The overhead must not scale with exploration size: figure6 visits
	// nearly twice the states of figure1 yet pays the same flush cost.
	if d1, d6 := deltas["figure1.chpl"], deltas["figure6.chpl"]; d6 > d1+32 {
		t.Errorf("recorder overhead scales with states: figure1 %+.0f, figure6 %+.0f", d1, d6)
	}
}

// fanoutGraph builds a CCFG with n sync-chained tasks — enough frontier
// width (> minParallelFrontier) that Parallelism > 1 actually spins up
// wave workers.
func fanoutGraph(t testing.TB, tasks int) *ccfg.Graph {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("proc fan() {\n  var x: int = 1;\n")
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&sb, "  var d%d$: sync bool;\n", i)
	}
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&sb, "  begin with (ref x) {\n    x += %d;\n    d%d$ = true;\n  }\n", i+1, i)
	}
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&sb, "  d%d$;\n", i)
	}
	sb.WriteString("}\n")
	src := sb.String()

	file := source.NewFile("fan.chpl", src)
	diags := &source.Diagnostics{}
	mod := parser.Parse(file, diags)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	info := sym.Resolve(mod, diags)
	if diags.HasErrors() {
		t.Fatalf("resolve: %v", diags)
	}
	for _, proc := range mod.Procs {
		prog := ir.Lower(info, proc, diags)
		return ccfg.Build(prog, diags, ccfg.BuildOptions{Prune: true})
	}
	t.Fatal("no proc found")
	return nil
}

// TestExploreParallelObsNoExtraAllocs extends the recorder-overhead
// guard to the parallel explorer: with 4 wave workers actually running
// (the fanout frontier exceeds minParallelFrontier), attaching a
// recorder must still only cost the bounded end-of-run flush — the wave
// workers themselves never touch the recorder.
func TestExploreParallelObsNoExtraAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting in -short mode")
	}
	g := fanoutGraph(t, 6)
	probe := pps.Explore(g, pps.Options{Parallelism: 4})
	if probe.Stats.MaxWorklist < 8 {
		t.Fatalf("fanout frontier = %d, too narrow to exercise the parallel path", probe.Stats.MaxWorklist)
	}
	base := testing.AllocsPerRun(20, func() {
		pps.Explore(g, pps.Options{Parallelism: 4})
	})
	rec := obs.New()
	withObs := testing.AllocsPerRun(20, func() {
		pps.Explore(g, pps.Options{Parallelism: 4, Obs: rec})
	})
	// Slightly more slack than the sequential guard: goroutine scheduling
	// adds run-to-run alloc noise, but the recorder cost itself must stay
	// a flush-sized constant.
	if delta := withObs - base; delta > 96 {
		t.Errorf("parallel recorder added %.0f allocs/run (base %.0f), want <= 96", delta, base)
	}
}

// TestFormatTextPhaseOnce: the text rendering of a real run names each
// pipeline phase on one row, as its phase timing; the phase_ns histogram
// family is not listed again. A phase that ran twice (a two-file batch)
// shows its run count and quantiles on that row.
func TestFormatTextPhaseOnce(t *testing.T) {
	src := loadTestdata(t, "figure1.chpl")
	br := AnalyzeFilesContext(context.Background(), []FileInput{
		{Name: "a.chpl", Src: src}, {Name: "b.chpl", Src: src},
	})
	text := br.Metrics.FormatText()
	for _, phase := range []string{obs.PhaseParse, obs.PhaseResolve, obs.PhaseLower,
		obs.PhaseCCFG, obs.PhasePrune, obs.PhaseExplore} {
		var rows []string
		for _, line := range strings.Split(text, "\n") {
			if f := strings.Fields(line); len(f) > 0 && (f[0] == phase || strings.Contains(f[0], "phase="+phase)) {
				rows = append(rows, line)
			}
		}
		if len(rows) != 1 {
			t.Errorf("phase %q on %d rows, want 1:\n%s", phase, len(rows), text)
			continue
		}
		if !strings.Contains(rows[0], "(2 runs)  p50=") || !strings.Contains(rows[0], " p90=") {
			t.Errorf("phase row %q lacks its run count and quantiles", rows[0])
		}
	}
}
