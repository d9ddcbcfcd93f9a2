package repair

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uafcheck/internal/analysis"
	"uafcheck/internal/runtime"
)

func analysisDefaults() analysis.Options { return analysis.DefaultOptions() }

func repairOK(t *testing.T, src string) *Result {
	t.Helper()
	res, err := Repair("t.chpl", src, analysis.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// dynClean runs the repaired program exhaustively and asserts no UAF and
// no deadlock — the repair must be semantically correct, not just enough
// to silence the analysis.
func dynClean(t *testing.T, src, entry string) {
	t.Helper()
	mod, info, diags := runtime.Load("fixed.chpl", src)
	if diags.HasErrors() {
		t.Fatalf("repaired source invalid:\n%s\n%s", diags, src)
	}
	er := runtime.Explore(context.Background(), mod, info, entry, 50000, -1)
	if len(er.UAF) != 0 {
		t.Fatalf("repaired program still races: %v\n%s", er.UAF, src)
	}
	if er.Deadlocks != 0 {
		t.Fatalf("repaired program deadlocks (%d schedules)\n%s", er.Deadlocks, src)
	}
}

func TestRepairNoSyncTask(t *testing.T) {
	src := `proc f() {
  var x: int = 1;
  begin with (ref x) {
    x = 2;
    writeln(x);
  }
  writeln("parent");
}`
	res := repairOK(t, src)
	if !res.Clean() {
		t.Fatalf("not clean: %d remaining\n%s", res.RemainingWarnings, res.Fixed)
	}
	if len(res.Steps) != 1 || res.Steps[0].Strategy != StrategyTokenChain {
		t.Fatalf("steps = %+v, want one token-chain", res.Steps)
	}
	if !strings.Contains(res.Fixed, res.Steps[0].Token) {
		t.Errorf("token %s missing from fixed source", res.Steps[0].Token)
	}
	dynClean(t, res.Fixed, "f")
}

func TestRepairFigure1(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "figure1.chpl"))
	if err != nil {
		t.Fatal(err)
	}
	res := repairOK(t, string(data))
	if !res.Clean() {
		t.Fatalf("figure1 not repaired: %d remaining\n%s", res.RemainingWarnings, res.Fixed)
	}
	dynClean(t, res.Fixed, "outerVarUse")
}

func TestRepairFigure6ConditionalTask(t *testing.T) {
	// The warned task is spawned conditionally: a naive token chain would
	// deadlock the parent on the else path. The engine keeps the protocol
	// total by signalling the token on every skipping branch arm, so the
	// parallelism-preserving token chain still verifies.
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "figure6.chpl"))
	if err != nil {
		t.Fatal(err)
	}
	res := repairOK(t, string(data))
	if !res.Clean() {
		t.Fatalf("figure6 not repaired: %d remaining\n%s", res.RemainingWarnings, res.Fixed)
	}
	if len(res.Steps) != 1 || res.Steps[0].Strategy != StrategyTokenChain {
		t.Fatalf("steps = %+v, want one token-chain", res.Steps)
	}
	// The else arm must have been synthesized with the token signal.
	if !strings.Contains(res.Fixed, "} else {") {
		t.Errorf("missing synthesized else arm:\n%s", res.Fixed)
	}
	if strings.Count(res.Fixed, res.Steps[0].Token+" = true;") != 2 {
		t.Errorf("token should be signalled on both the task and the skip path:\n%s", res.Fixed)
	}
	dynClean(t, res.Fixed, "multipleUse")
}

func TestRepairFenceFallbackWhenTokenDeadlocks(t *testing.T) {
	// Force the token chain to fail: the task ALREADY consumes a token
	// the parent needs afterwards, so appending another handshake keeps
	// the static verdict warning-free but the engine's dynamic check
	// rejects any candidate that deadlocks. Here the inner task is
	// guarded by a while loop... loops forbid token chains outright, so
	// the engine must use a fence.
	src := `config const n = 1;
proc f() {
  var x: int = 1;
  for i in 1..n {
    writeln(i);
  }
  begin with (ref x) {
    writeln(x);
  }
}`
	// The begin is NOT under the loop, so the token chain applies; use a
	// variant with the begin under an if inside a while to force the
	// loop bail-out.
	src = `config const flag = true;
proc f() {
  var x: int = 1;
  var k: int = 1;
  while (k > 0) {
    if (flag) {
      begin with (ref x) {
        writeln(x);
      }
    }
    k -= 1;
  }
}`
	res, err := Repair("t.chpl", src, analysisDefaults())
	if err != nil {
		t.Fatal(err)
	}
	// Loops containing begins are an analysis scope limit (§IV-A): the
	// loop is subsumed and the access surfaces inside the collapsed
	// region; the token chain must refuse (begin under loop).
	for _, s := range res.Steps {
		if s.Strategy == StrategyTokenChain {
			t.Fatalf("token chain applied under a loop: %+v", res.Steps)
		}
	}
}

func TestRepairTrailingAccess(t *testing.T) {
	src := `proc f() {
  var x: int = 1;
  var done$: sync bool;
  begin with (ref x) {
    x = 2;
    done$ = true;
    x = 3;
  }
  done$;
}`
	res := repairOK(t, src)
	if !res.Clean() {
		t.Fatalf("trailing access not repaired:\n%s", res.Fixed)
	}
	dynClean(t, res.Fixed, "f")
}

func TestRepairMultipleTasks(t *testing.T) {
	src := `proc f() {
  var x: int = 1;
  var y: int = 2;
  begin with (ref x) { x = 10; }
  begin with (ref y) { y = 20; }
}`
	res := repairOK(t, src)
	if !res.Clean() {
		t.Fatalf("multi-task not repaired: %d remaining\n%s", res.RemainingWarnings, res.Fixed)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(res.Steps))
	}
	if res.Steps[0].Token == res.Steps[1].Token {
		t.Error("token reuse across tasks")
	}
	dynClean(t, res.Fixed, "f")
}

func TestRepairNestedLeak(t *testing.T) {
	src := `proc f() {
  var x: int = 1;
  var doneA$: sync bool;
  begin with (ref x) {
    begin with (ref x) {
      writeln(x);
    }
    doneA$ = true;
  }
  doneA$;
}`
	res := repairOK(t, src)
	if !res.Clean() {
		t.Fatalf("nested leak not repaired:\n%s", res.Fixed)
	}
	dynClean(t, res.Fixed, "f")
}

func TestRepairRefParam(t *testing.T) {
	// The endangered variable is a by-ref parameter: the token anchors at
	// the procedure body.
	src := `proc worker(ref buf: int) {
  begin {
    buf = 42;
  }
}
proc main() {
  var b: int = 0;
  worker(b);
  writeln(b);
}`
	res := repairOK(t, src)
	if !res.Clean() {
		t.Fatalf("ref-param case not repaired: %d remaining\n%s", res.RemainingWarnings, res.Fixed)
	}
	dynClean(t, res.Fixed, "main")
}

func TestRepairAlreadyCleanIsNoop(t *testing.T) {
	src := `proc f() {
  var x: int = 1;
  var done$: sync bool;
  begin with (ref x) {
    x = 2;
    done$ = true;
  }
  done$;
}`
	res := repairOK(t, src)
	if len(res.Steps) != 0 || res.InitialWarnings != 0 {
		t.Fatalf("clean program modified: %+v", res.Steps)
	}
	if res.Fixed != src {
		t.Error("clean program source changed")
	}
}

func TestRepairPreservesOutput(t *testing.T) {
	// The repaired program must still compute the same thing: run both
	// under a schedule where the original happens to be safe and compare
	// writeln output.
	src := `proc f() {
  var x: int = 5;
  begin with (ref x) {
    x = x * 2;
    writeln("task:", x);
  }
}`
	res := repairOK(t, src)
	if !res.Clean() {
		t.Fatalf("not repaired:\n%s", res.Fixed)
	}
	mod, info, diags := runtime.Load("fixed.chpl", res.Fixed)
	if diags.HasErrors() {
		t.Fatalf("repaired source invalid:\n%s", diags)
	}
	r := runtime.Run(mod, info, runtime.Config{Entry: "f", CaptureOutput: true})
	if len(r.Output) != 1 || r.Output[0] != "task:10" {
		t.Errorf("repaired output = %v, want [task:10]", r.Output)
	}
}
