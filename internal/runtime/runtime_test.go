package runtime

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"uafcheck/internal/ast"
	"uafcheck/internal/sym"
)

func load(t *testing.T, src string) (*ast.Module, *sym.Info) {
	t.Helper()
	mod, info, diags := Load("test.chpl", src)
	if diags.HasErrors() {
		t.Fatalf("frontend errors:\n%s", diags)
	}
	return mod, info
}

func loadFile(t *testing.T, name string) (*ast.Module, *sym.Info) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return load(t, string(data))
}

func TestSequentialExecution(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var x: int = 1;
  x += 2;
  x *= 3;
  writeln("x=", x);
}`)
	r := Run(mod, info, Config{CaptureOutput: true})
	if len(r.UAF) != 0 || r.Deadlock {
		t.Fatalf("unexpected failure: %s", r.Summary())
	}
	if len(r.Output) != 1 || r.Output[0] != "x=9" {
		t.Fatalf("output = %q, want [x=9]", r.Output)
	}
}

func TestSyncVariableOrdersTasks(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var x: int = 0;
  var done$: sync bool;
  begin with (ref x) {
    x = 42;
    done$ = true;
  }
  done$;
  writeln(x);
}`)
	// Under every schedule the parent reads x only after the task wrote
	// it: the output must always be 42 and there is never a UAF.
	for seed := int64(0); seed < 20; seed++ {
		r := Run(mod, info, Config{CaptureOutput: true, Policy: NewRandomPolicy(seed)})
		if r.Deadlock || len(r.UAF) != 0 {
			t.Fatalf("seed %d: %s", seed, r.Summary())
		}
		if len(r.Output) != 1 || r.Output[0] != "42" {
			t.Fatalf("seed %d: output %q, want [42]", seed, r.Output)
		}
	}
}

func TestUnsynchronizedTaskTriggersUAF(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var x: int = 7;
  begin with (ref x) {
    writeln(x);
  }
}`)
	er := Explore(context.Background(), mod, info, "", 10000, -1)
	if er.Truncated {
		t.Fatalf("exploration truncated after %d runs", er.Runs)
	}
	if len(er.UAF) != 1 {
		t.Fatalf("UAF sites = %v, want exactly the writeln(x) access", er.UAF)
	}
	for _, e := range er.UAF {
		if e.Var != "x" {
			t.Errorf("UAF var = %s, want x", e.Var)
		}
	}
}

func TestInIntentCopyIsSafe(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var x: int = 7;
  begin with (in x) {
    writeln(x);
  }
}`)
	er := Explore(context.Background(), mod, info, "", 10000, -1)
	if len(er.UAF) != 0 {
		t.Fatalf("in-intent copy produced UAF: %v", er.UAF)
	}
}

func TestSyncBlockProtects(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var x: int = 7;
  sync {
    begin with (ref x) {
      x = 8;
    }
  }
  writeln(x);
}`)
	er := Explore(context.Background(), mod, info, "", 20000, -1)
	if len(er.UAF) != 0 {
		t.Fatalf("sync block failed to protect: %v", er.UAF)
	}
	if er.Deadlocks != 0 {
		t.Fatalf("unexpected deadlocks: %d", er.Deadlocks)
	}
}

func TestSyncBlockWaitsTransitively(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var x: int = 7;
  sync {
    begin with (ref x) {
      begin with (ref x) {
        x = 9;
      }
    }
  }
  writeln(x);
}`)
	er := Explore(context.Background(), mod, info, "", 50000, -1)
	if len(er.UAF) != 0 {
		t.Fatalf("transitive sync fence failed: %v", er.UAF)
	}
}

// TestFigure1DynamicOracle confirms the paper's claim dynamically: the
// TASK B access can fire after the scope exits in some schedule, while
// TASK A's accesses never do.
func TestFigure1DynamicOracle(t *testing.T) {
	mod, info := loadFile(t, "figure1.chpl")
	er := Explore(context.Background(), mod, info, "outerVarUse", 200000, -1)
	if er.Truncated {
		t.Logf("exploration truncated after %d runs (still a valid lower bound)", er.Runs)
	}
	// The dangerous access is the writeln(x) in TASK B.
	found := false
	for _, e := range er.UAF {
		if e.Var != "x" {
			t.Errorf("unexpected UAF on %s", e.Var)
		}
		if e.Task == "TASK B" {
			found = true
		} else {
			t.Errorf("UAF observed in %s, expected only TASK B: %+v", e.Task, e)
		}
	}
	if !found {
		t.Errorf("dynamic oracle did not confirm the TASK B use-after-free (runs=%d)", er.Runs)
	}
}

// TestFigure1SafeVariantDynamic: the swapped-wait variant never triggers
// a use-after-free under any schedule.
func TestFigure1SafeVariantDynamic(t *testing.T) {
	mod, info := loadFile(t, "figure1_safe.chpl")
	er := Explore(context.Background(), mod, info, "outerVarUseSafe", 200000, -1)
	if len(er.UAF) != 0 {
		t.Fatalf("safe variant triggered UAF: %v", er.UAF)
	}
}

func TestDeadlockDetected(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var a$: sync bool;
  a$; // readFE on an empty variable that no one fills
}`)
	r := Run(mod, info, Config{})
	if !r.Deadlock {
		t.Fatalf("expected deadlock, got %s", r.Summary())
	}
}

func TestAtomicWaitForSynchronizes(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var x: int = 0;
  var f: atomic int;
  begin with (ref x) {
    x = 5;
    f.write(1);
  }
  f.waitFor(1);
  writeln(x);
}`)
	for seed := int64(0); seed < 30; seed++ {
		r := Run(mod, info, Config{CaptureOutput: true, Policy: NewRandomPolicy(seed)})
		if len(r.UAF) != 0 || r.Deadlock {
			t.Fatalf("seed %d: %s", seed, r.Summary())
		}
		if len(r.Output) != 1 || r.Output[0] != "5" {
			t.Fatalf("seed %d: output %q", seed, r.Output)
		}
	}
}

func TestSingleVariableDoubleWriteReported(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var s$: single bool;
  s$.writeEF(true);
  var v: bool = s$.readFF();
  writeln(v);
}`)
	r := Run(mod, info, Config{CaptureOutput: true})
	if len(r.RuntimeErrors) != 0 {
		t.Fatalf("unexpected errors: %v", r.RuntimeErrors)
	}
	if len(r.Output) != 1 || r.Output[0] != "true" {
		t.Fatalf("output %q", r.Output)
	}
}

func TestNestedProcHiddenAccessUAF(t *testing.T) {
	// The hidden outer access pattern of §I: a nested proc reads x; the
	// begin task calls it without passing x.
	mod, info := load(t, `
proc main() {
  var x: int = 3;
  proc peek() {
    writeln(x);
  }
  begin {
    peek();
  }
}`)
	er := Explore(context.Background(), mod, info, "", 10000, -1)
	if len(er.UAF) != 1 {
		t.Fatalf("hidden nested-proc access not caught: %v", er.UAF)
	}
}

func TestExploreRandomReproducible(t *testing.T) {
	mod, info := loadFile(t, "figure1.chpl")
	a := ExploreRandom(context.Background(), mod, info, "outerVarUse", 50, 1)
	b := ExploreRandom(context.Background(), mod, info, "outerVarUse", 50, 1)
	if len(a.UAF) != len(b.UAF) {
		t.Fatalf("same seed diverged: %d vs %d UAF sites", len(a.UAF), len(b.UAF))
	}
}
