package wire

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uafcheck"
	"uafcheck/internal/udiff"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenInput builds a fixed, analyzer-independent document input: two
// files, both warning kinds, a conservative downgrade, and a repair
// that eliminates one warning but not the other. Hand-constructed on
// purpose — the golden file pins the SARIF *encoding*, and must not
// drift when the analyzer's warning output changes.
func goldenInput() ([]Result, map[string]RepairedFile) {
	buggy := &uafcheck.Report{Warnings: []uafcheck.Warning{
		{Var: "x", Task: "TASK A", Proc: "f", Write: true,
			Reason: "after-frontier", Pos: "buggy.chpl:3:5",
			AccessLine: 3, AccessCol: 5, DeclLine: 2},
		{Var: "y", Task: "TASK B", Proc: "f", Write: false,
			Reason: "never-synchronized", Pos: "buggy.chpl:6:3",
			AccessLine: 6, AccessCol: 3, DeclLine: 2, Conservative: true},
	}}
	clean := &uafcheck.Report{}
	results := []Result{
		NewResult("buggy.chpl", buggy, nil, false),
		NewResult("clean.chpl", clean, nil, false),
	}
	src := strings.Join([]string{
		"proc f() {",
		"var x: int = 1;",
		"begin with (ref x) { // TASK A",
		"  x = 2;",
		"}",
		"begin with (ref y) { writeln(y); } // TASK B",
		"writeln(x);",
		"}",
		"",
	}, "\n")
	fixed := strings.Join([]string{
		"proc f() {",
		"var x: int = 1;",
		"var x_done$: sync bool;",
		"begin with (ref x) { // TASK A",
		"  x = 2;",
		"  x_done$ = true;",
		"}",
		"begin with (ref y) { writeln(y); } // TASK B",
		"writeln(x);",
		"x_done$;",
		"}",
		"",
	}, "\n")
	diff := udiff.Unified("buggy.chpl", src, fixed)
	repairs := map[string]RepairedFile{
		"buggy.chpl": {Src: src, Report: &uafcheck.RepairReport{
			Name:  "buggy.chpl",
			Fixed: fixed,
			Diff:  diff,
			Patches: []uafcheck.Patch{{
				Strategy: "token-chain", Proc: "f", Task: "TASK A",
				Token: "x_done$", Diff: diff,
				Verdict: uafcheck.Verdict{
					Verified:       true,
					Checks:         []string{uafcheck.CheckStaticReanalysis, uafcheck.CheckScheduleOracle},
					WarningsBefore: 2, WarningsAfter: 1,
				},
			}},
			InitialWarnings:   2,
			RemainingWarnings: 1,
			Remaining: []uafcheck.Warning{
				{Var: "y", Task: "TASK B", Proc: "f", Write: false,
					Reason: "never-synchronized", Pos: "buggy.chpl:8:3",
					AccessLine: 8, AccessCol: 3, DeclLine: 2, Conservative: true},
			},
		}},
	}
	return results, repairs
}

// TestSARIFGolden pins the full SARIF document — schema, rule metadata
// (id, shortDescription, helpUri), result shape, and the fixes
// projection — against a golden file. Any schema drift fails here; run
// `go test ./internal/wire/ -run SARIFGolden -update` to re-bless an
// intentional change.
func TestSARIFGolden(t *testing.T) {
	results, repairs := goldenInput()
	got, err := SARIFWithFixes(results, repairs).EncodeIndent()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.sarif")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SARIF document drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSARIFRuleMetadata: every known warning kind carries the full
// rule metadata triple (id, shortDescription, helpUri).
func TestSARIFRuleMetadata(t *testing.T) {
	results, _ := goldenInput()
	log := SARIF(results)
	rules := log.Runs[0].Tool.Driver.Rules
	if len(rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(rules))
	}
	for _, r := range rules {
		if r.ID == "" || r.ShortDescription.Text == "" || r.HelpURI == "" {
			t.Errorf("rule %q missing metadata: %+v", r.ID, r)
		}
		if _, ok := ruleMeta[r.ID]; !ok {
			t.Errorf("rule %q has no ruleMeta entry", r.ID)
		}
	}
}

// TestSARIFFixes: eliminated warnings carry the fix; surviving
// warnings and files without a repair do not. A repair report without
// patches (refused or nothing verified) attaches nothing.
func TestSARIFFixes(t *testing.T) {
	results, repairs := goldenInput()
	log := SARIFWithFixes(results, repairs)
	res := log.Runs[0].Results
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2", len(res))
	}
	// Result order is (file, line): after-frontier at line 3 first.
	fixed, surviving := res[0], res[1]
	if fixed.RuleID != "after-frontier" || len(fixed.Fixes) != 1 {
		t.Fatalf("eliminated warning lacks its fix: %+v", fixed)
	}
	fix := fixed.Fixes[0]
	if len(fix.ArtifactChanges) != 1 || fix.ArtifactChanges[0].ArtifactLocation.URI != "buggy.chpl" {
		t.Fatalf("fix artifactChanges: %+v", fix)
	}
	reps := fix.ArtifactChanges[0].Replacements
	if len(reps) == 0 {
		t.Fatal("fix has no replacements")
	}
	sawInsertion := false
	for _, r := range reps {
		if r.DeletedRegion.StartLine == 0 {
			t.Fatalf("replacement without a region: %+v", r)
		}
		if r.InsertedContent != nil && r.DeletedRegion.StartColumn == 1 && r.DeletedRegion.EndColumn == 1 {
			sawInsertion = true
		}
	}
	if !sawInsertion {
		t.Error("token-chain fix should contain zero-width insertions")
	}
	if len(surviving.Fixes) != 0 {
		t.Fatalf("surviving warning must not carry a fix: %+v", surviving)
	}

	// No repair entry -> no fixes at all.
	plain := SARIFWithFixes(results, nil)
	for _, r := range plain.Runs[0].Results {
		if len(r.Fixes) != 0 {
			t.Fatalf("fixes attached without a repair: %+v", r)
		}
	}
}
