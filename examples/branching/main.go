// Branching example (paper §III-D, Figures 6 and 7): conditional task
// creation means the analysis must consider every run-time path.
//
//	go run ./examples/branching
//
// The first program is the paper's Figure 6: when the branch is taken,
// TASK B consumes the sync token itself and the parent may exit before
// TASK B's access. The second program shows the repaired version with a
// dedicated token per waiter.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"uafcheck"
)

const repaired = `
config const flag = true;
proc multipleUse() {
  var x: int = 10;
  var doneA$: sync bool;
  var doneB$: sync bool;
  begin with (ref x) {
    if (flag) {
      begin with (ref x) {
        writeln(x);
        doneB$ = true;   // dedicated token for TASK B
      }
    } else {
      doneB$ = true;     // keep the protocol total on the else path
    }
    doneA$ = true;
  }
  doneA$;
  doneB$;                // the parent now waits for BOTH tasks
}
`

func main() {
	path := filepath.Join("testdata", "figure6.chpl")
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("%v (run from the repository root)", err)
	}
	src := string(data)

	fmt.Println("== Figure 6: branch-dependent synchronization ==")
	report, err := uafcheck.AnalyzeContext(context.Background(), path, src)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range report.Warnings {
		fmt.Println(w)
	}

	fmt.Println("\n== PPS table (paper Figure 7): both branch paths explored ==")
	trace, err := uafcheck.PPSTrace(path, src, "multipleUse")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(trace)

	fmt.Println("== repaired version: a token per waiter ==")
	report, err = uafcheck.AnalyzeContext(context.Background(), "repaired.chpl", repaired)
	if err != nil {
		log.Fatal(err)
	}
	if len(report.Warnings) == 0 {
		fmt.Println("no warnings — the wait chain now covers every path")
	}
	for _, w := range report.Warnings {
		fmt.Println(w)
	}

	// Dynamic cross-check on both versions.
	for _, v := range []struct{ name, src, entry string }{
		{"figure6", src, "multipleUse"},
		{"repaired", repaired, "multipleUse"},
	} {
		dyn, err := uafcheck.ExploreSchedules(v.name+".chpl", v.src, v.entry, 50000, 1, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dynamic oracle, %s: %d schedules, UAF sites %v, deadlocks %d\n",
			v.name, dyn.Runs, dyn.UAFSites, dyn.Deadlocks)
	}
}
