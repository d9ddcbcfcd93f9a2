// Automatic repair (paper §VII: "optimize the amount and position of
// synchronization points required"): the engine synthesizes sync-variable
// wait chains or fences for every warning and verifies each patch both
// statically (re-analysis) and dynamically (schedule exploration).
//
//	go run ./examples/repair
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
	for _, file := range []string{"figure1.chpl", "figure6.chpl"} {
		path := filepath.Join("testdata", file)
		data, err := os.ReadFile(path)
		if err != nil {
			log.Fatalf("%v (run from the repository root)", err)
		}
		src := string(data)

		rep, err := uafcheck.AnalyzeContext(context.Background(), path, src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s: %d warning(s) ==\n", file, len(rep.Warnings))
		for _, w := range rep.Warnings {
			fmt.Println("  " + w.String())
		}

		fix, err := uafcheck.Repair(context.Background(), path, src)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range fix.Patches {
			extra := ""
			if p.Token != "" {
				extra = " introducing sync variable " + p.Token
			}
			fmt.Printf("  applied %s to %s in proc %s%s\n", p.Strategy, p.Task, p.Proc, extra)
		}
		for _, r := range fix.Rejected {
			fmt.Printf("  rejected candidate: %s\n", r)
		}
		fmt.Printf("  warnings: %d -> %d\n", fix.InitialWarnings, fix.RemainingWarnings)

		// Confirm the repair dynamically: no schedule may race or
		// deadlock.
		entry := "outerVarUse"
		if file == "figure6.chpl" {
			entry = "multipleUse"
		}
		dyn, err := uafcheck.ExploreSchedules("fixed.chpl", fix.Fixed, entry, 50000, 1, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  dynamic check: %d schedules, UAF %v, deadlocks %d\n\n",
			dyn.Runs, dyn.UAFSites, dyn.Deadlocks)

		fmt.Println("repaired source:")
		fmt.Println(fix.Fixed)
	}
}
