package runtime

import (
	"context"
	"strings"
	"testing"
)

func TestSingleWriteOnceReadMany(t *testing.T) {
	// A single variable is filled once and read any number of times;
	// readFF retains the full state.
	mod, info := load(t, `
proc main() {
  var s$: single int;
  s$.writeEF(1);
  var v: int = s$.readFF();
  var w: int = s$.readFF();
  writeln(v + w);
}`)
	r := Run(mod, info, Config{CaptureOutput: true})
	if len(r.RuntimeErrors) != 0 || len(r.Output) != 1 || r.Output[0] != "2" {
		t.Fatalf("single reuse failed: %v / %v", r.RuntimeErrors, r.Output)
	}
}

func TestSingleSecondWriteReported(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var s$: single int;
  s$.writeEF(1);
  var v: int = s$.readFF();
  writeln(v);
  s$.writeEF(2);
}`)
	// The second writeEF blocks until empty — singles never empty, so
	// this deadlocks rather than double-writing (Chapel would error; we
	// surface the blocked state).
	r := Run(mod, info, Config{})
	if !r.Deadlock {
		t.Fatalf("second single write should block forever: %s", r.Summary())
	}
}

func TestStepBudgetGuard(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var f: atomic int;
  f.waitFor(1);
}`)
	r := Run(mod, info, Config{MaxSteps: 50})
	stop := false
	for _, e := range r.RuntimeErrors {
		if strings.Contains(e, "step budget") {
			stop = true
		}
	}
	// waitFor with no writer: either detected as deadlock (blocked with
	// no state change) or the budget trips; both are acceptable guards.
	if !stop && !r.Deadlock {
		t.Fatalf("runaway spin not stopped: %s", r.Summary())
	}
}

func TestStringValues(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var s: string = "abc";
  s += "def";
  writeln(s, "!", 42);
}`)
	r := Run(mod, info, Config{CaptureOutput: true})
	if len(r.Output) != 1 || r.Output[0] != "abcdef!42" {
		t.Fatalf("output = %v", r.Output)
	}
}

func TestDivisionByZeroRecorded(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var a: int = 1;
  var b: int = 0;
  writeln(a / b);
  writeln(a % b);
}`)
	r := Run(mod, info, Config{CaptureOutput: true})
	if len(r.RuntimeErrors) != 2 {
		t.Fatalf("errors = %v", r.RuntimeErrors)
	}
}

func TestAssertBuiltin(t *testing.T) {
	mod, info := load(t, `
proc main() {
  assert(1 + 1 == 2);
  assert(false);
}`)
	r := Run(mod, info, Config{})
	if len(r.RuntimeErrors) != 1 || !strings.Contains(r.RuntimeErrors[0], "assertion failed") {
		t.Fatalf("errors = %v", r.RuntimeErrors)
	}
}

func TestEarlyReturnKillsScope(t *testing.T) {
	mod, info := load(t, `
proc worker(): int {
  var local: int = 5;
  begin with (ref local) {
    writeln(local);
  }
  return local;
}
proc main() {
  writeln(worker());
}`)
	er := Explore(context.Background(), mod, info, "main", 10000, -1)
	if len(er.UAF) != 1 {
		t.Fatalf("return-path scope death not detected: %v", er.UAF)
	}
}

func TestReturnInsideSyncBlockStillFences(t *testing.T) {
	mod, info := load(t, `
proc f(): int {
  var x: int = 0;
  sync {
    begin with (ref x) {
      x = 7;
    }
    return 1;
  }
  return 0;
}
proc main() {
  writeln(f());
  }`)
	er := Explore(context.Background(), mod, info, "main", 20000, -1)
	if len(er.UAF) != 0 {
		t.Fatalf("sync fence skipped on early return: %v", er.UAF)
	}
	if er.Deadlocks != 0 {
		t.Fatalf("deadlocks: %d", er.Deadlocks)
	}
}

func TestCompareExchange(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var a: atomic int;
  a.write(3);
  writeln(a.compareExchange(3, 9));
  writeln(a.read());
  writeln(a.compareExchange(3, 1));
  writeln(a.read());
}`)
	r := Run(mod, info, Config{CaptureOutput: true})
	want := []string{"true", "9", "false", "9"}
	if len(r.Output) != len(want) {
		t.Fatalf("output = %v", r.Output)
	}
	for i := range want {
		if r.Output[i] != want[i] {
			t.Fatalf("output[%d] = %s, want %s", i, r.Output[i], want[i])
		}
	}
}

func TestNestedProcRecursionRuns(t *testing.T) {
	mod, info := load(t, `
proc main() {
  var acc: int = 0;
  proc sum(n: int): int {
    if (n <= 0) {
      return 0;
    }
    return n + sum(n - 1);
  }
  acc = sum(5);
  writeln(acc);
}`)
	r := Run(mod, info, Config{CaptureOutput: true})
	if len(r.Output) != 1 || r.Output[0] != "15" {
		t.Fatalf("recursion output = %v (%v)", r.Output, r.RuntimeErrors)
	}
}
