package uafcheck_test

import (
	"context"
	"fmt"

	"uafcheck"
)

// The headline use: analyze a program and print the warnings.
func ExampleAnalyzeContext() {
	src := `
proc main() {
  var x: int = 10;
  begin with (ref x) {
    writeln(x);
  }
}`
	report, err := uafcheck.AnalyzeContext(context.Background(), "main.chpl", src)
	if err != nil {
		panic(err)
	}
	for _, w := range report.Warnings {
		fmt.Printf("%s in %s: variable %q (%s)\n", w.Pos, w.Task, w.Var, w.Reason)
	}
	// Output:
	// main.chpl:5:13 in TASK A: variable "x" (never-synchronized)
}

// A sync-variable wait chain makes the same program clean.
func ExampleAnalyzeContext_waitChain() {
	src := `
proc main() {
  var x: int = 10;
  var done$: sync bool;
  begin with (ref x) {
    writeln(x);
    done$ = true;
  }
  done$;
}`
	report, err := uafcheck.AnalyzeContext(context.Background(), "main.chpl", src)
	if err != nil {
		panic(err)
	}
	fmt.Println("warnings:", len(report.Warnings))
	// Output:
	// warnings: 0
}

// A shared content-addressed cache serves repeat analyses of unchanged
// sources without re-running the pipeline.
func ExampleAnalyzeContext_cache() {
	src := `
proc main() {
  var x: int = 10;
  begin with (ref x) {
    writeln(x);
  }
}`
	cc := uafcheck.NewCache(uafcheck.CacheConfig{})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := uafcheck.AnalyzeContext(ctx, "main.chpl", src,
			uafcheck.WithCache(cc), uafcheck.WithParallelism(4)); err != nil {
			panic(err)
		}
	}
	st := cc.Stats()
	fmt.Printf("misses: %d, hits: %d\n", st.Misses, st.Hits)
	// Output:
	// misses: 1, hits: 2
}

// Dynamic validation: exhaustively explore schedules and check whether
// the flagged site is a real use-after-free.
func ExampleExploreSchedules() {
	src := `
proc main() {
  var x: int = 1;
  begin with (ref x) {
    x = 2;
  }
}`
	dyn, err := uafcheck.ExploreSchedules("main.chpl", src, "main", 1000, 1, true)
	if err != nil {
		panic(err)
	}
	fmt.Println("exhausted:", dyn.Exhausted)
	fmt.Println("confirmed:", dyn.ObservedUAF("x", 5))
	// Output:
	// exhausted: true
	// confirmed: true
}

// Automatic repair synthesizes and verifies a synchronization fix.
func ExampleRepair() {
	src := `proc main() {
  var x: int = 1;
  begin with (ref x) {
    x = 2;
  }
}`
	fix, err := uafcheck.Repair(context.Background(), "main.chpl", src)
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", fix.Patches[0].Strategy)
	fmt.Printf("warnings: %d -> %d\n", fix.InitialWarnings, fix.RemainingWarnings)
	// Output:
	// strategy: token-chain
	// warnings: 1 -> 0
}

// The atomics extension models handshake synchronization the default
// analysis cannot see.
func ExampleWithAtomicsModel() {
	src := `
proc main() {
  var x: int = 1;
  var f: atomic int;
  begin with (ref x) {
    x = 2;
    f.write(1);
  }
  f.waitFor(1);
}`
	ctx := context.Background()
	plain, _ := uafcheck.AnalyzeContext(ctx, "main.chpl", src)
	modeled, _ := uafcheck.AnalyzeContext(ctx, "main.chpl", src,
		uafcheck.WithAtomicsModel(true))
	fmt.Printf("default: %d warning(s), extension: %d\n",
		len(plain.Warnings), len(modeled.Warnings))
	// Output:
	// default: 1 warning(s), extension: 0
}
