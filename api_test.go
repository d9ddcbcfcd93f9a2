package uafcheck_test

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"uafcheck"
)

const apiBuggy = `
proc leak() {
  var data: int = 0;
  begin with (ref data) {
    data = 1;
  }
}
`

const apiFixed = `
proc leak() {
  var data: int = 0;
  var done$: sync bool;
  begin with (ref data) {
    data = 1;
    done$ = true;
  }
  done$;
}
`

func TestAnalyzeBasic(t *testing.T) {
	rep, err := uafcheck.AnalyzeContext(context.Background(), "a.chpl", apiBuggy)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 1 {
		t.Fatalf("warnings = %d, want 1", len(rep.Warnings))
	}
	w := rep.Warnings[0]
	if w.Var != "data" || !w.Write || w.Task != "TASK A" || w.Proc != "leak" {
		t.Errorf("warning = %+v", w)
	}
	if w.Reason != "never-synchronized" {
		t.Errorf("reason = %s", w.Reason)
	}
	if !strings.Contains(w.String(), "potentially dangerous write") {
		t.Errorf("String() = %s", w.String())
	}
	if len(rep.Stats) != 1 || rep.Stats[0].Tasks != 2 {
		t.Errorf("stats = %+v", rep.Stats)
	}

	rep, err = uafcheck.AnalyzeContext(context.Background(), "b.chpl", apiFixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 0 {
		t.Fatalf("fixed version warned: %v", rep.Warnings)
	}
}

func TestAnalyzeFrontendError(t *testing.T) {
	_, err := uafcheck.AnalyzeContext(context.Background(), "bad.chpl", "proc f( {")
	if err == nil {
		t.Fatal("expected frontend error")
	}
	if !errors.Is(err, uafcheck.ErrParse) {
		t.Errorf("error not wrapped as ErrParse: %v", err)
	}
}

func TestCCFGRendering(t *testing.T) {
	text, err := uafcheck.CCFGText("a.chpl", apiBuggy, "leak")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "TASK A") || !strings.Contains(text, "OV(data,W)") {
		t.Errorf("CCFGText = %s", text)
	}
	dot, err := uafcheck.CCFGDot("a.chpl", apiBuggy, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "digraph ccfg") {
		t.Errorf("CCFGDot = %s", dot)
	}
	if _, err := uafcheck.CCFGText("a.chpl", apiBuggy, "nonexistent"); err == nil {
		t.Error("unknown proc should error")
	}
}

func TestPPSTraceRendering(t *testing.T) {
	trace, err := uafcheck.PPSTrace("b.chpl", apiFixed, "leak")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ASN", "done$", "sink"} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %q:\n%s", want, trace)
		}
	}
}

func TestExploreSchedulesAPI(t *testing.T) {
	dyn, err := uafcheck.ExploreSchedules("a.chpl", apiBuggy, "leak", 5000, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if !dyn.Exhausted {
		t.Error("tiny program should be exhaustible")
	}
	if len(dyn.UAFSites) != 1 || !dyn.ObservedUAF("data", 5) {
		t.Errorf("UAF sites = %v", dyn.UAFSites)
	}
	dyn, err = uafcheck.ExploreSchedules("b.chpl", apiFixed, "leak", 5000, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn.UAFSites) != 0 {
		t.Errorf("fixed version UAF = %v", dyn.UAFSites)
	}
}

func TestRunProgramOutput(t *testing.T) {
	out, _, err := uafcheck.ExecuteTraced("p.chpl", `
proc main() {
  var x: int = 6;
  writeln("x=", x * 7);
}`, "main", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != "x=42" {
		t.Errorf("output = %v", out)
	}
}

func TestModelAtomicsOption(t *testing.T) {
	src := `
proc f() {
  var x: int = 0;
  var g: atomic int;
  begin with (ref x) {
    x = 1;
    g.write(1);
  }
  g.waitFor(1);
}`
	ctx := context.Background()
	rep, err := uafcheck.AnalyzeContext(ctx, "a.chpl", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 1 {
		t.Fatalf("default warnings = %d, want 1", len(rep.Warnings))
	}
	rep, err = uafcheck.AnalyzeContext(ctx, "a.chpl", src, uafcheck.WithAtomicsModel(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 0 {
		t.Fatalf("extension warnings = %d, want 0", len(rep.Warnings))
	}
}

func TestTestdataProgramsStable(t *testing.T) {
	// The checked-in figure programs keep their documented verdicts.
	for _, tc := range []struct {
		file  string
		warns int
	}{
		{"testdata/figure1.chpl", 1},
		{"testdata/figure1_safe.chpl", 0},
		{"testdata/figure6.chpl", 1},
	} {
		data, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := uafcheck.AnalyzeContext(context.Background(), tc.file, string(data))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Warnings) != tc.warns {
			t.Errorf("%s: warnings = %d, want %d", tc.file, len(rep.Warnings), tc.warns)
		}
	}
}
