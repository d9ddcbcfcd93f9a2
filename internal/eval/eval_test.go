package eval

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uafcheck"
	"uafcheck/internal/analysis"
	"uafcheck/internal/corpus"
	"uafcheck/internal/runtime"
)

// smallParams shrink the suite for fast unit testing while preserving the
// population structure.
func smallParams(seed int64) corpus.Params {
	return corpus.Params{
		Seed:          seed,
		Tests:         200,
		BeginTests:    40,
		UnsafeTests:   8,
		TrueSites:     24,
		AtomicFPTests: 8,
		FalseSites:    48,
	}
}

// TestCorpusSmallShape verifies the evaluation invariants on a reduced
// suite: every ground-truth site is flagged (no soundness gaps), safe
// patterns never warn (no stray precision bugs), and the aggregate counts
// follow the construction.
func TestCorpusSmallShape(t *testing.T) {
	cases := corpus.Generate(smallParams(7))
	table, det, _ := RunTableI(context.Background(), cases)

	if det.FrontendFailures != 0 {
		t.Fatalf("%d corpus programs failed the frontend", det.FrontendFailures)
	}
	if len(det.UnexpectedWarnCases) != 0 {
		t.Fatalf("safe patterns warned: %v", det.UnexpectedWarnCases)
	}
	for _, out := range det.Outcomes {
		if len(out.MissedSites) != 0 {
			t.Fatalf("case %s missed true sites %v\nsource:\n%s",
				out.Case.Name, out.MissedSites, out.Case.Source)
		}
	}
	if table.TotalTests != 200 || table.TestsWithBegin != 40 {
		t.Errorf("population = %d/%d, want 200/40", table.TotalTests, table.TestsWithBegin)
	}
	if table.TestsWithWarnings != 16 {
		t.Errorf("flagged cases = %d, want 16 (8 unsafe + 8 atomic)", table.TestsWithWarnings)
	}
	if table.TruePositives != 24 {
		t.Errorf("true positives = %d, want 24", table.TruePositives)
	}
	if table.WarningsReported != 24+48 {
		t.Errorf("warnings = %d, want 72", table.WarningsReported)
	}
}

// TestParallelMatchesSequential: the Table I driver produces the exact
// same table, per-pattern breakdown and outcomes at every worker-pool
// size, one worker included.
func TestParallelMatchesSequential(t *testing.T) {
	cases := corpus.Generate(smallParams(17))
	seqTable, seqDet, _ := RunTableI(context.Background(), cases, uafcheck.WithWorkers(1))
	for _, workers := range []int{1, 2, 8} {
		parTable, parDet, sum := RunTableI(context.Background(), cases, uafcheck.WithWorkers(workers))
		if parTable != seqTable {
			t.Fatalf("workers=%d: table differs: %+v vs %+v", workers, parTable, seqTable)
		}
		if parDet.FormatPatternBreakdown() != seqDet.FormatPatternBreakdown() {
			t.Fatalf("workers=%d: breakdown differs", workers)
		}
		if sum.Files != len(cases) || sum.OK != len(cases) {
			t.Fatalf("workers=%d: summary %+v, want all %d cases ok", workers, sum, len(cases))
		}
		for i := range parDet.Outcomes {
			if parDet.Outcomes[i].Case.Name != seqDet.Outcomes[i].Case.Name ||
				len(parDet.Outcomes[i].Warnings) != len(seqDet.Outcomes[i].Warnings) {
				t.Fatalf("workers=%d: outcome %d differs", workers, i)
			}
		}
	}
}

// TestOracleConfirmsGroundTruth cross-validates generator labels with the
// dynamic scheduler: every true site must be dynamically observable and
// no atomic-pattern case may ever trigger a real use-after-free.
func TestOracleConfirmsGroundTruth(t *testing.T) {
	cases := corpus.Generate(smallParams(11))
	rep := ValidateWithOracle(context.Background(), cases, 0, 400, 3)
	if rep.TotalTrue == 0 {
		t.Fatalf("oracle validated no sites")
	}
	if rep.ConfirmedTrue != rep.TotalTrue {
		t.Errorf("oracle confirmed %d/%d true sites", rep.ConfirmedTrue, rep.TotalTrue)
	}
	if len(rep.FalseAlarms) != 0 {
		t.Errorf("atomic-pattern cases triggered real UAF: %v", rep.FalseAlarms)
	}
}

// TestSafePatternsLifetimeVsRaces: "safe" in the corpus means
// LIFETIME-safe (the paper's property). The vector-clock detector draws
// the finer line: wait-chain/handshake idioms are also race-free, while
// fenced parallel increments (safe-syncblock) and the nested-chain's
// unordered read are genuine data races despite being free of
// use-after-free — exactly the distinction §VI draws between the two
// problem families.
func TestSafePatternsLifetimeVsRaces(t *testing.T) {
	raceFree := map[string]bool{
		"safe-syncchain":        true,
		"safe-inintent":         true,
		"safe-single":           true,
		"safe-syncedref":        true,
		"safe-fenced-handshake": true,
		"safe-nestedproc":       true,
		// safe-syncblock: 2+ tasks increment the same variable under one
		// fence — lifetime-safe, racy.
		"safe-syncblock": false,
		// safe-nestedchain: the nested task's read races the outer
		// task's increment (they are mutually unordered).
		"safe-nestedchain": false,
	}
	cases := corpus.Generate(smallParams(41))
	checked := 0
	sawRacy := false
	for i := range cases {
		tc := &cases[i]
		if !tc.HasBegin || tc.WantWarn {
			continue
		}
		wantFree, known := raceFree[tc.Pattern]
		if !known {
			t.Fatalf("pattern %s missing from the race expectation table", tc.Pattern)
		}
		mod, info, diags := runtime.Load(tc.Name, tc.Source)
		if diags.HasErrors() {
			t.Fatalf("%s: %s", tc.Name, diags)
		}
		er := runtime.Explore(context.Background(), mod, info, tc.EntryProc, 3000, -1)
		checked++
		if wantFree && len(er.Races) != 0 {
			t.Errorf("%s (%s): expected race-free, got %v\n%s",
				tc.Name, tc.Pattern, er.Races, tc.Source)
		}
		if len(er.Races) > 0 {
			sawRacy = true
		}
		// Lifetime safety holds for ALL safe patterns regardless.
		if len(er.UAF) != 0 {
			t.Errorf("%s (%s): safe pattern UAF: %v", tc.Name, tc.Pattern, er.UAF)
		}
	}
	if checked == 0 {
		t.Fatal("no safe cases checked")
	}
	if !sawRacy {
		t.Error("expected the fenced-increment patterns to exhibit races")
	}
	t.Logf("lifetime-vs-race check over %d safe task programs", checked)
}

// TestBaselineComparison: the §VI baselines must flag at least as much as
// the paper's analysis, and strictly more on wait-chain-protected code.
func TestBaselineComparison(t *testing.T) {
	cases := corpus.Generate(smallParams(13))
	rep := RunBaselines(cases, analysis.DefaultOptions())
	if rep.Cases == 0 {
		t.Fatal("no begin cases analyzed")
	}
	if rep.NaiveMHPFlags < rep.PaperWarnings {
		t.Errorf("naive MHP (%d) flagged less than the paper (%d)", rep.NaiveMHPFlags, rep.PaperWarnings)
	}
	if rep.ClearedByPPS <= 0 {
		t.Errorf("PPS exploration cleared nothing (%d); wait-chain patterns should be cleared", rep.ClearedByPPS)
	}
	if rep.FinishWouldBlock <= 0 {
		t.Errorf("finish discipline blocked no safe case; sync-chain patterns should trip it")
	}
}

// TestCorpusAndTableIAPI drives the harness the way cmd/uafcorpus
// does: generate a corpus, run Table I through the library, format the
// per-pattern breakdown and the §VI baseline comparison.
func TestCorpusAndTableIAPI(t *testing.T) {
	params := corpus.Params{Seed: 3, Tests: 100, BeginTests: 20,
		UnsafeTests: 4, TrueSites: 8, AtomicFPTests: 4, FalseSites: 12}
	cases := corpus.Generate(params)
	if len(cases) != 100 {
		t.Fatalf("corpus size = %d", len(cases))
	}
	table, det, _ := RunTableI(context.Background(), cases)
	if table.TruePositives != 8 || table.WarningsReported != 20 {
		t.Errorf("table = %+v", table)
	}
	if breakdown := det.FormatPatternBreakdown(); !strings.Contains(breakdown, "pattern") {
		t.Errorf("breakdown = %s", breakdown)
	}
	if cmp := RunBaselines(cases, analysis.DefaultOptions()).Format(); !strings.Contains(cmp, "Naive MHP") {
		t.Errorf("baseline comparison = %s", cmp)
	}
}

// baselineCase wraps one begin-task program as a corpus case.
func baselineCase(name, src string) []corpus.TestCase {
	return []corpus.TestCase{{Name: name, Source: src, HasBegin: true}}
}

// TestBaselinesFlagWaitChainedCode: the sync-variable wait chain makes
// the access safe under the paper's analysis, but both baselines still
// flag it — the precision gap §VI argues about.
func TestBaselinesFlagWaitChainedCode(t *testing.T) {
	rep := RunBaselines(baselineCase("waitchain", `proc f() {
	  var x: int = 1;
	  var done$: sync bool;
	  begin with (ref x) {
	    x = 2;
	    done$ = true;
	  }
	  done$;
	}`), analysis.DefaultOptions())
	if rep.Cases != 1 || rep.PaperWarnings != 0 {
		t.Fatalf("paper analysis flagged the wait chain: %+v", rep)
	}
	if rep.NaiveMHPFlags != 1 {
		t.Errorf("naive MHP flags = %d, want 1", rep.NaiveMHPFlags)
	}
	if rep.FinishFlags != 1 {
		t.Errorf("finish enforcement flags = %d, want 1", rep.FinishFlags)
	}
	if rep.ClearedByPPS != 1 || rep.FinishWouldBlock != 1 {
		t.Errorf("ClearedByPPS = %d, FinishWouldBlock = %d, want 1 and 1",
			rep.ClearedByPPS, rep.FinishWouldBlock)
	}
}

// TestBaselinesAcceptSyncBlock: a finish-style block satisfies all three
// analyses — no flags anywhere.
func TestBaselinesAcceptSyncBlock(t *testing.T) {
	rep := RunBaselines(baselineCase("syncblock", `proc f() {
	  var x: int = 1;
	  sync {
	    begin with (ref x) { x = 2; }
	  }
	}`), analysis.DefaultOptions())
	if rep.Cases != 1 || rep.PaperWarnings != 0 || rep.NaiveMHPFlags != 0 || rep.FinishFlags != 0 {
		t.Errorf("baselines flagged sync-block-protected code: %+v", rep)
	}
}

// TestFigure1Baselines: on the paper's Figure 1 the paper analysis warns
// once while the baselines flag every tracked access.
func TestFigure1Baselines(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "figure1.chpl"))
	if err != nil {
		t.Fatal(err)
	}
	opts := analysis.DefaultOptions()
	rep := RunBaselines(baselineCase("figure1", string(data)), opts)
	opts.KeepGraphs = true
	tracked := 0
	for _, pr := range analysis.AnalyzeSource("figure1.chpl", string(data), opts).Procs {
		tracked += len(pr.Graph.Accesses)
	}
	if rep.PaperWarnings != 1 {
		t.Fatalf("paper warnings = %d", rep.PaperWarnings)
	}
	if rep.NaiveMHPFlags != tracked || rep.FinishFlags != tracked {
		t.Errorf("naive MHP = %d, finish = %d, want all %d tracked",
			rep.NaiveMHPFlags, rep.FinishFlags, tracked)
	}
	if rep.NaiveMHPFlags <= rep.PaperWarnings {
		t.Errorf("baseline (%d) should flag strictly more than the paper (%d)",
			rep.NaiveMHPFlags, rep.PaperWarnings)
	}
}

// FormatTelemetry keeps the per-pattern columns and gives every
// populated log2 bucket its own exact row, past 4096 states too.
func TestFormatTelemetryBuckets(t *testing.T) {
	var det Details
	det.PerPattern = map[string]*PatternStats{}
	for _, c := range []struct {
		pattern string
		states  int
	}{{"seq", 0}, {"seq", 0}, {"fan", 1}, {"fan", 5}, {"fan", 5000}} {
		ps := det.PerPattern[c.pattern]
		if ps == nil {
			ps = &PatternStats{}
			det.PerPattern[c.pattern] = ps
		}
		ps.absorb(CaseOutcome{StatesCreated: c.states})
	}
	out := det.FormatTelemetry()
	for _, want := range []string{
		"pattern                  cases   total-ms    mean-us mean-states max-states\n",
		"fan                          3        0.0        0.0      1668.7       5000\n",
		"TOTAL                        5        0.0\n",
		"  0               2 ",
		"  1               1 ",
		"  4-7             1 ",
		"  4096-8191       1 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("telemetry missing %q:\n%s", want, out)
		}
	}
}
