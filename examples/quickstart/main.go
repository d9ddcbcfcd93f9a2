// Quickstart: analyze a MiniChapel program for use-after-free accesses in
// fire-and-forget tasks.
//
//	go run ./examples/quickstart
//
// The program below forgets to synchronize its task with the parent
// scope; the analysis reports the dangerous accesses and the fixed
// variant comes back clean.
package main

import (
	"context"
	"fmt"
	"log"

	"uafcheck"
)

const buggy = `
proc accumulate() {
  var total: int = 0;
  begin with (ref total) {
    total += 10;      // dangerous: nothing orders this before the
    writeln(total);   // parent's exit -- 'total' may already be freed
  }
  writeln("spawned worker");
}
`

const fixed = `
proc accumulate() {
  var total: int = 0;
  var done$: sync bool;
  begin with (ref total) {
    total += 10;
    writeln(total);
    done$ = true;     // signal the parent...
  }
  done$;              // ...which waits here before freeing 'total'
  writeln("spawned worker");
}
`

func main() {
	fmt.Println("== analyzing the buggy version ==")
	report, err := uafcheck.AnalyzeContext(context.Background(), "buggy.chpl", buggy)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range report.Warnings {
		fmt.Println(w)
	}
	fmt.Printf("-> %d warning(s)\n\n", len(report.Warnings))

	fmt.Println("== analyzing the fixed version ==")
	report, err = uafcheck.AnalyzeContext(context.Background(), "fixed.chpl", fixed)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range report.Warnings {
		fmt.Println(w)
	}
	fmt.Printf("-> %d warning(s)\n\n", len(report.Warnings))

	// The dynamic oracle agrees: the buggy version triggers a real
	// use-after-free under schedule exploration, the fixed one never
	// does.
	dyn, err := uafcheck.ExploreSchedules("buggy.chpl", buggy, "accumulate", 5000, 1, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dynamic oracle, buggy: %d schedules, UAF sites %v\n", dyn.Runs, dyn.UAFSites)

	dyn, err = uafcheck.ExploreSchedules("fixed.chpl", fixed, "accumulate", 5000, 1, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dynamic oracle, fixed: %d schedules, UAF sites %v\n", dyn.Runs, dyn.UAFSites)
}
