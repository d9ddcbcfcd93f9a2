package runtime

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestBoundedFindsFigure1Bug: the Figure 1 use-after-free manifests
// within two preemptions; the bounded explorer must find it with far
// fewer runs than full exhaustion needs.
func TestBoundedFindsFigure1Bug(t *testing.T) {
	mod, info := loadFile(t, "figure1.chpl")
	er := Explore(context.Background(), mod, info, "outerVarUse", 5000, 2)
	if er.Truncated {
		t.Logf("bounded exploration truncated at %d runs", er.Runs)
	}
	found := false
	for _, e := range er.UAF {
		if e.Task == "TASK B" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bound-2 exploration missed the TASK B bug (%d runs)", er.Runs)
	}
	t.Logf("bounded: bug found within %d runs", er.Runs)
}

// TestBoundedSmallerThanExhaustive: on a program with several tasks, the
// preemption-bounded space is much smaller than the full schedule tree.
func TestBoundedSmallerThanExhaustive(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("proc many() {\n")
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&sb, "  var v%d: int = %d;\n", i, i)
		fmt.Fprintf(&sb, "  var d%d$: sync bool;\n", i)
	}
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&sb, "  begin with (ref v%d) {\n    v%d = v%d + 1;\n    d%d$ = true;\n  }\n", i, i, i, i)
	}
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&sb, "  d%d$;\n", i)
	}
	sb.WriteString("}\n")
	mod, info := load(t, sb.String())

	bounded := Explore(context.Background(), mod, info, "many", 200000, 1)
	exhaustive := Explore(context.Background(), mod, info, "many", 200000, -1)
	if bounded.Truncated {
		t.Fatalf("bound-1 space should be tiny, got truncated at %d", bounded.Runs)
	}
	if !exhaustive.Truncated && exhaustive.Runs <= bounded.Runs {
		t.Errorf("exhaustive (%d runs) not larger than bounded (%d runs)",
			exhaustive.Runs, bounded.Runs)
	}
	t.Logf("bounded=1: %d runs; exhaustive: %d runs (truncated=%t)",
		bounded.Runs, exhaustive.Runs, exhaustive.Truncated)
	// The program is safe: neither may report UAFs.
	if len(bounded.UAF) != 0 || len(exhaustive.UAF) != 0 {
		t.Errorf("safe program reported UAFs: %v / %v", bounded.UAF, exhaustive.UAF)
	}
}

// TestBoundedZeroIsSingleScheduleFamily: bound 0 allows no preemption at
// all — only voluntary switches (blocking, task exit) — so the run count
// collapses to the branch structure only.
func TestBoundedZeroIsSingleScheduleFamily(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var x: int = 1;
  var done$: sync bool;
  begin with (ref x) {
    x = 2;
    done$ = true;
  }
  done$;
  writeln(x);
}`)
	er := Explore(context.Background(), mod, info, "main", 1000, 0)
	if er.Truncated {
		t.Fatalf("bound-0 should be tiny: %d runs", er.Runs)
	}
	if er.Runs > 8 {
		t.Errorf("bound-0 runs = %d, expected a handful", er.Runs)
	}
	if len(er.UAF) != 0 {
		t.Errorf("safe program flagged: %v", er.UAF)
	}
}

// TestBoundedAgreesWithExhaustiveOnSmallPrograms: for programs small
// enough to exhaust, a generous bound must find the same UAF site set.
func TestBoundedAgreesWithExhaustiveOnSmallPrograms(t *testing.T) {
	srcs := []string{
		`proc p() {
		  var x: int = 1;
		  begin with (ref x) { writeln(x); }
		}`,
		`proc p() {
		  var x: int = 1;
		  var done$: sync bool;
		  begin with (ref x) { x = 2; done$ = true; x = 3; }
		  done$;
		}`,
		`proc p() {
		  var x: int = 1;
		  var a$: sync bool;
		  begin with (ref x) {
		    begin with (ref x) { writeln(x); }
		    a$ = true;
		  }
		  a$;
		}`,
	}
	for i, src := range srcs {
		mod, info := load(t, src)
		ex := Explore(context.Background(), mod, info, "p", 100000, -1)
		bd := Explore(context.Background(), mod, info, "p", 100000, 3)
		if ex.Truncated || bd.Truncated {
			t.Fatalf("case %d truncated", i)
		}
		if len(ex.UAF) != len(bd.UAF) {
			t.Errorf("case %d: exhaustive %v vs bounded %v", i, ex.UAF, bd.UAF)
		}
		for k := range ex.UAF {
			if _, ok := bd.UAF[k]; !ok {
				t.Errorf("case %d: bounded missed %s", i, k)
			}
		}
	}
}
