package uafcheck_test

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uafcheck"
	"uafcheck/internal/udiff"
)

// TestRepairPatches: the public Repair entry point returns verified
// unified-diff patches whose application reproduces Fixed, and whose
// verdicts carry a strictly decreasing warning delta.
func TestRepairPatches(t *testing.T) {
	src, err := os.ReadFile("testdata/figure1.chpl")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := uafcheck.Repair(context.Background(), "figure1.chpl", string(src))
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Clean() {
		t.Fatalf("figure1 should repair clean, %d warnings remain", rr.RemainingWarnings)
	}
	if len(rr.Patches) == 0 || rr.Diff == "" {
		t.Fatalf("expected patches and a cumulative diff, got %d patches", len(rr.Patches))
	}
	// Patches apply in sequence and reproduce Fixed.
	cur := string(src)
	for i, p := range rr.Patches {
		if !p.Verdict.Verified {
			t.Fatalf("patch %d not verified", i)
		}
		if got := strings.Join(p.Verdict.Checks, ","); got != "static-reanalysis,schedule-oracle" {
			t.Fatalf("patch %d checks = %q", i, got)
		}
		if p.Verdict.WarningsAfter >= p.Verdict.WarningsBefore {
			t.Fatalf("patch %d delta not decreasing: %d -> %d",
				i, p.Verdict.WarningsBefore, p.Verdict.WarningsAfter)
		}
		next, err := udiff.Apply(cur, p.Diff)
		if err != nil {
			t.Fatalf("patch %d does not apply: %v", i, err)
		}
		cur = next
	}
	if cur != rr.Fixed {
		t.Fatalf("sequential patch application does not reproduce Fixed")
	}
	// The cumulative diff is equivalent.
	viaCum, err := udiff.Apply(string(src), rr.Diff)
	if err != nil {
		t.Fatalf("cumulative diff does not apply: %v", err)
	}
	if viaCum != rr.Fixed {
		t.Fatalf("cumulative diff does not reproduce Fixed")
	}
	// The verdicts match a local re-analysis of Fixed.
	rep, err := uafcheck.AnalyzeContext(context.Background(), "figure1.chpl", rr.Fixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != rr.RemainingWarnings {
		t.Fatalf("re-analysis found %d warnings, report says %d",
			len(rep.Warnings), rr.RemainingWarnings)
	}
	if last := rr.Patches[len(rr.Patches)-1]; last.Verdict.WarningsAfter != len(rep.Warnings) {
		t.Fatalf("last verdict says %d warnings, re-analysis found %d",
			last.Verdict.WarningsAfter, len(rep.Warnings))
	}
}

// TestRepairParseError: frontend failures surface as ErrParse.
func TestRepairParseError(t *testing.T) {
	_, err := uafcheck.Repair(context.Background(), "bad.chpl", "proc { nope")
	if !errors.Is(err, uafcheck.ErrParse) {
		t.Fatalf("want ErrParse, got %v", err)
	}
}

// TestRepairDegradedRefusal: a starved state budget degrades the
// baseline analysis, and Repair refuses with the typed sentinel
// instead of patching on conservative evidence.
func TestRepairDegradedRefusal(t *testing.T) {
	src, err := os.ReadFile("testdata/figure1.chpl")
	if err != nil {
		t.Fatal(err)
	}
	_, err = uafcheck.Repair(context.Background(), "figure1.chpl", string(src),
		uafcheck.WithMaxStates(2))
	if !errors.Is(err, uafcheck.ErrRepairDegraded) {
		t.Fatalf("want ErrRepairDegraded, got %v", err)
	}
}

// TestRepairReportClone: the deep clone shares no mutable state with
// the original.
func TestRepairReportClone(t *testing.T) {
	src, err := os.ReadFile("testdata/figure6.chpl")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := uafcheck.Repair(context.Background(), "figure6.chpl", string(src))
	if err != nil {
		t.Fatal(err)
	}
	cp := rr.Clone()
	if !reflect.DeepEqual(rr, cp) {
		t.Fatalf("clone not equal to original")
	}
	if len(cp.Patches) > 0 {
		cp.Patches[0].Diff = "mutated"
		cp.Patches[0].Verdict.Checks[0] = "mutated"
	}
	cp.Rejected = append(cp.Rejected, "mutated")
	for i := range cp.Remaining {
		if cp.Remaining[i].Prov != nil {
			cp.Remaining[i].Prov.Chain = append(cp.Remaining[i].Prov.Chain, "mutated")
		}
	}
	rr2, err := uafcheck.Repair(context.Background(), "figure6.chpl", string(src))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr, rr2) {
		t.Fatalf("mutating the clone changed the original")
	}
	if (*uafcheck.RepairReport)(nil).Clone() != nil {
		t.Fatalf("nil clone should be nil")
	}
}

// oracleDoneContext is live for the static analyses and already done for
// the schedule oracle: Err reports Canceled exactly when the interpreter
// (internal/runtime) asks, and counts those calls.
type oracleDoneContext struct {
	context.Context
	oracleCalls atomic.Int64
}

func (c *oracleDoneContext) Err() error {
	pcs := make([]uintptr, 16)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, "uafcheck/internal/runtime.") {
			c.oracleCalls.Add(1)
			return context.Canceled
		}
		if !more {
			return nil
		}
	}
}

// TestRepairScheduleCheckFollowsContext: the schedule checks run under
// the call's context. With the context done by the time the first check
// starts (the baseline analysis saw it live), that check stops at its
// first poll and Repair refuses with ErrRepairDegraded instead of
// accepting a patch on a cut-short exploration.
func TestRepairScheduleCheckFollowsContext(t *testing.T) {
	src, err := os.ReadFile("testdata/figure1.chpl")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &oracleDoneContext{Context: context.Background()}
	rr, err := uafcheck.Repair(ctx, "figure1.chpl", string(src))
	if !errors.Is(err, uafcheck.ErrRepairDegraded) {
		t.Fatalf("Repair with the oracle's context done returned (%+v, %v), want ErrRepairDegraded", rr, err)
	}
	if n := ctx.oracleCalls.Load(); n != 1 {
		t.Errorf("schedule oracle polled the context %d times, want 1 (stop at the first poll)", n)
	}
}

// TestRepairDeadlineBoundsScheduleChecks: WithDeadline bounds a repair's
// schedule checks too. The task in recursion_note.chpl recurses without
// end, so every schedule of it runs to the interpreter's step budget and
// one unbounded check takes longer than a minute; under a 200ms
// deadline Repair refuses within seconds.
func TestRepairDeadlineBoundsScheduleChecks(t *testing.T) {
	src, err := os.ReadFile("testdata/suite/recursion_note.chpl")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rr, err := uafcheck.Repair(context.Background(), "recursion_note.chpl", string(src),
		uafcheck.WithDeadline(200*time.Millisecond))
	if !errors.Is(err, uafcheck.ErrRepairDegraded) {
		t.Fatalf("Repair under a 200ms deadline returned (%+v, %v), want ErrRepairDegraded", rr, err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("Repair took %v under a 200ms deadline", el)
	}
}
