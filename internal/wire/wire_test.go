package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"uafcheck"
)

const uafSrc = `proc leak() {
  var x: int = 1;
  begin with (ref x) {
    x = 2;
  }
}
`

const cleanSrc = `proc ok() {
  var d$: sync bool;
  var x: int = 1;
  begin with (ref x) {
    x = 2;
    d$ = true;
  }
  d$;
}
`

func analyze(t *testing.T, name, src string) *uafcheck.Report {
	t.Helper()
	rep, err := uafcheck.AnalyzeContext(context.Background(), name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// TestStatusOf pins the status vocabulary shared with internal/batch.
func TestStatusOf(t *testing.T) {
	mk := func(reason uafcheck.DegradeReason) *uafcheck.Report {
		return &uafcheck.Report{Degraded: &uafcheck.Degradation{Reason: reason}}
	}
	cases := []struct {
		rep  *uafcheck.Report
		err  error
		want string
	}{
		{&uafcheck.Report{}, nil, "ok"},
		{nil, uafcheck.ErrParse, "error"},
		{nil, nil, "error"},
		{mk(uafcheck.DegradeBudget), nil, "degraded"},
		{mk(uafcheck.DegradeCancelled), nil, "degraded"},
		{mk(uafcheck.DegradeDeadline), nil, "timed-out"},
		{mk(uafcheck.DegradePanic), nil, "crashed"},
	}
	for _, c := range cases {
		if got := StatusOf(c.rep, c.err); got != c.want {
			t.Errorf("StatusOf(%+v, %v) = %q, want %q", c.rep, c.err, got, c.want)
		}
	}
}

// TestNewResultCanonical checks the canonical encoding's invariants:
// metrics stripped, warnings sorted, the input report untouched, and
// repeated encodings byte-identical.
func TestNewResultCanonical(t *testing.T) {
	rep := analyze(t, "leak.chpl", uafSrc)
	if len(rep.Warnings) == 0 {
		t.Fatal("expected a warning from the leak source")
	}
	if rep.Metrics.Counters == nil {
		t.Fatal("expected live metrics on the report")
	}

	res := NewResult("leak.chpl", rep, nil, false)
	if res.Status != "ok" || res.Metrics != nil {
		t.Fatalf("canonical result: status=%q metrics=%v", res.Status, res.Metrics)
	}
	if len(res.Report.Metrics.Counters) != 0 || len(res.Report.Metrics.Hists) != 0 {
		t.Error("canonical report still carries volatile metrics")
	}
	if rep.Metrics.Counters == nil {
		t.Error("NewResult mutated the caller's report")
	}

	a, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewResult("leak.chpl", rep, nil, false).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("re-encoding differs:\n%s\n%s", a, b)
	}
	if bytes.HasSuffix(a, []byte("\n")) {
		t.Error("Encode emitted a trailing newline")
	}

	// In-band metrics are opt-in and travel in the side field.
	rm := NewResult("leak.chpl", rep, nil, true)
	if rm.Metrics == nil || rm.Metrics.Counters["analysis.procs"] == 0 {
		t.Error("includeMetrics did not carry the snapshot")
	}
}

// TestNewResultLeavesReportUnchanged: NewResult sorts a copy of the
// warnings and strips the telemetry of the result, never of the
// caller's report, which a cache or a singleflight may share: warning
// order, provenance and metrics stay as they were, with and without
// in-band metrics.
func TestNewResultLeavesReportUnchanged(t *testing.T) {
	rep := analyze(t, "two.chpl", `proc two() {
  var x: int = 1;
  var y: int = 2;
  begin with (ref x, ref y) {
    x = 2;
    y = 3;
  }
}
`)
	if len(rep.Warnings) < 2 {
		t.Fatalf("expected two warnings, got %v", rep.Warnings)
	}
	// Out of presentation order, so NewResult has something to sort.
	slices.Reverse(rep.Warnings)
	if rep.Warnings[0].Prov == nil {
		rep.Warnings[0].Prov = &uafcheck.WarningProvenance{Node: "x = 2", Chain: []string{"a", "b"}}
	}
	before := rep.Clone()
	for _, metrics := range []bool{false, true} {
		res := NewResult("two.chpl", rep, nil, metrics)
		if _, err := res.Encode(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, before) {
			t.Fatalf("metrics=%t: NewResult changed the caller's report", metrics)
		}
		if res.Report.Warnings[0] == rep.Warnings[0] {
			t.Errorf("metrics=%t: result warnings not sorted: %v", metrics, res.Report.Warnings)
		}
		if metrics {
			// The in-band snapshot is the result's own.
			res.Metrics.Counters["analysis.procs"] += 100
			if !reflect.DeepEqual(rep.Metrics, before.Metrics) {
				t.Error("in-band metrics share the caller's maps")
			}
		}
	}
}

// TestSARIFShape validates the document skeleton and the ordering
// guarantees.
func TestSARIFShape(t *testing.T) {
	repA := analyze(t, "b_leak.chpl", uafSrc)
	repB := analyze(t, "a_clean.chpl", cleanSrc)
	results := []Result{
		NewResult("b_leak.chpl", repA, nil, false),
		NewResult("a_clean.chpl", repB, nil, false),
	}

	log := SARIF(results)
	if log.Schema != SARIFSchema || log.Version != SARIFVersion {
		t.Fatalf("schema/version: %q %q", log.Schema, log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "uafcheck" || run.Tool.Driver.Version != uafcheck.Version {
		t.Errorf("driver = %+v", run.Tool.Driver)
	}
	if len(run.Results) != len(repA.Warnings) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(repA.Warnings))
	}
	for _, r := range run.Results {
		if r.RuleID == "" || r.Message.Text == "" || len(r.Locations) != 1 {
			t.Errorf("incomplete result %+v", r)
		}
		found := false
		for _, rule := range run.Tool.Driver.Rules {
			if rule.ID == r.RuleID {
				found = true
			}
		}
		if !found {
			t.Errorf("result rule %q missing from the catalogue", r.RuleID)
		}
	}

	// Input order must not leak into the document: reversing the result
	// list yields identical bytes.
	rev := []Result{results[1], results[0]}
	a, _ := SARIF(results).EncodeIndent()
	b, _ := SARIF(rev).EncodeIndent()
	if !bytes.Equal(a, b) {
		t.Error("SARIF output depends on input order")
	}
	if !json.Valid(a) {
		t.Error("SARIF output is not valid JSON")
	}
	if !strings.HasSuffix(string(a), "\n") {
		t.Error("EncodeIndent missing trailing newline")
	}
}

// TestSARIFEmpty: no findings still yields a valid document with empty
// (not null) rules and results arrays.
func TestSARIFEmpty(t *testing.T) {
	rep := analyze(t, "clean.chpl", cleanSrc)
	b, err := SARIF([]Result{NewResult("clean.chpl", rep, nil, false)}).EncodeIndent()
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	if !strings.Contains(s, `"rules": []`) || !strings.Contains(s, `"results": []`) {
		t.Errorf("empty SARIF has null arrays:\n%s", s)
	}
}
