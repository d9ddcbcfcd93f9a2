// Corpus demo: a miniature version of the paper's evaluation (§V).
//
//	go run ./examples/corpusdemo
//
// Generates a 300-program synthetic suite with the Table I population
// structure, runs the analysis over all of it, prints the resulting
// table, and cross-validates a sample of the flagged programs with the
// dynamic schedule oracle.
package main

import (
	"context"
	"fmt"

	"uafcheck"
)

func main() {
	params := uafcheck.CorpusParams{
		Seed:          42,
		Tests:         300,
		BeginTests:    40,
		UnsafeTests:   8,
		TrueSites:     20,
		AtomicFPTests: 8,
		FalseSites:    60,
	}
	cases := uafcheck.GenerateCorpus(params)
	fmt.Printf("generated %d programs (%d with begin tasks)\n\n", len(cases), params.BeginTests)

	table, breakdown := uafcheck.RunTableIContext(context.Background(), cases)
	fmt.Println("miniature Table I:")
	fmt.Print(table.Format())
	fmt.Println("\nper-pattern breakdown:")
	fmt.Print(breakdown)

	fmt.Println("\nbaseline comparison (§VI):")
	fmt.Print(uafcheck.BaselineComparison(context.Background(), cases))

	// Show one flagged program of each kind.
	var shownTrue, shownFP bool
	for i := range cases {
		c := &cases[i]
		if !c.WantWarn {
			continue
		}
		isTrue := len(c.TrueSites) > 0
		if isTrue && shownTrue || !isTrue && shownFP {
			continue
		}
		kind := "true positive"
		if !isTrue {
			kind = "false positive (atomic-synchronized)"
		}
		fmt.Printf("\nsample %s program %s (pattern %s):\n%s", kind, c.Name, c.Pattern, c.Source)
		if isTrue {
			shownTrue = true
		} else {
			shownFP = true
		}
		if shownTrue && shownFP {
			break
		}
	}
}
