// Figure-1 walkthrough: the paper's running example, end to end.
//
//	go run ./examples/figure1
//
// Prints the program, its Concurrent Control Flow Graph (the paper's
// Figure 2), the Parallel Program State exploration table (Figure 3), the
// resulting warning, and the dynamic oracle's confirmation that TASK B's
// access is a real use-after-free while TASK A's accesses are safe.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"uafcheck"
)

func main() {
	path := filepath.Join("testdata", "figure1.chpl")
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("%v (run from the repository root)", err)
	}
	src := string(data)

	fmt.Println("== the program (paper Figure 1) ==")
	fmt.Println(src)

	fmt.Println("== CCFG (paper Figure 2) ==")
	ccfg, err := uafcheck.CCFGText(path, src, "outerVarUse")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ccfg)

	fmt.Println("== PPS exploration (paper Figure 3) ==")
	trace, err := uafcheck.PPSTrace(path, src, "outerVarUse")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(trace)

	fmt.Println("== warnings ==")
	report, err := uafcheck.AnalyzeContext(context.Background(), path, src)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range report.Warnings {
		fmt.Println(w)
	}
	for _, s := range report.Stats {
		fmt.Printf("stats: proc %s: %d nodes, %d tasks (%d pruned), %d tracked accesses, %d PPS states\n",
			s.Proc, s.Nodes, s.Tasks, s.PrunedTasks, s.TrackedAccesses, s.StatesProcessed)
	}

	fmt.Println("\n== dynamic confirmation (exhaustive schedule exploration) ==")
	dyn, err := uafcheck.ExploreSchedules(path, src, "outerVarUse", 100000, 1, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedules: %d (exhausted=%t), deadlocks: %d\n", dyn.Runs, dyn.Exhausted, dyn.Deadlocks)
	for _, w := range report.Warnings {
		if dyn.ObservedUAF(w.Var, w.AccessLine) {
			fmt.Printf("  %s at line %d: CONFIRMED — some schedule frees %q before the access\n",
				w.Task, w.AccessLine, w.Var)
		} else {
			fmt.Printf("  %s at line %d: not observed dynamically\n", w.Task, w.AccessLine)
		}
	}
}
