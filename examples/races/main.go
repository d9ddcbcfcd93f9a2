// Data races vs use-after-free: the dynamic oracle's vector-clock
// detector (the §VI related-work connection to static race detection,
// done dynamically) finds ordering races that are not lifetime bugs.
//
//	go run ./examples/races
package main

import (
	"context"
	"fmt"
	"log"

	"uafcheck"
)

// The parent reads x concurrently with the task's write — an ordering
// race. It is NOT a lifetime bug: the done$ chain still keeps x alive
// until the task finishes, so the paper's analysis is rightly silent
// while the race detector speaks up.
const racy = `
proc main() {
  var x: int = 0;
  var done$: sync bool;
  begin with (ref x) {
    x = 1;
    done$ = true;
  }
  writeln(x);
  done$;
}
`

const clean = `
proc main() {
  var x: int = 0;
  var done$: sync bool;
  begin with (ref x) {
    x = 1;
    done$ = true;
  }
  done$;
  writeln(x);
}
`

func main() {
	for _, v := range []struct{ name, src string }{
		{"racy (read before the wait)", racy},
		{"clean (read after the wait)", clean},
	} {
		fmt.Printf("== %s ==\n", v.name)

		rep, err := uafcheck.AnalyzeContext(context.Background(), v.name, v.src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("static analysis: %d warning(s)\n", len(rep.Warnings))
		for _, w := range rep.Warnings {
			fmt.Println("  " + w.String())
		}

		dyn, err := uafcheck.ExploreSchedules(v.name, v.src, "main", 20000, 1, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dynamic oracle (%d schedules):\n", dyn.Runs)
		fmt.Printf("  use-after-free sites: %v\n", dyn.UAFSites)
		fmt.Printf("  data-race site pairs: %v\n", dyn.RaceSites)
		fmt.Println()
	}
	fmt.Println("The static pass targets LIFETIME violations (the paper's problem);")
	fmt.Println("the vector-clock detector catches ordering races as well. A program")
	fmt.Println("can have either, both, or neither — compare the two runs above.")
}
