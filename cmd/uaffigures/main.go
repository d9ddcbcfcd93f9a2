// Command uaffigures regenerates the paper's figures from the programs in
// testdata/: Figure 2 (CCFG of Figure 1), Figure 3 (its PPS table and
// warning), and Figure 7 (CCFG + PPS table of the branching example of
// Figure 6).
//
// Usage:
//
//	uaffigures [-fig N] [-dot] [-testdata dir]
//
// Without -fig, all figures are printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"uafcheck"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "figure to print: 2, 3 or 7 (0 = all)")
		dot      = flag.Bool("dot", false, "emit CCFGs as Graphviz dot instead of text")
		ppsdot   = flag.Bool("ppsdot", false, "emit the PPS state machine as Graphviz dot")
		testdata = flag.String("testdata", "testdata", "directory holding figure1.chpl / figure6.chpl")
	)
	flag.Parse()

	fig1 := read(*testdata, "figure1.chpl")
	fig6 := read(*testdata, "figure6.chpl")

	if *fig == 0 || *fig == 2 {
		section("Figure 2: CCFG for proc outerVarUse (Figure 1)")
		printCCFG("figure1.chpl", fig1, "outerVarUse", *dot)
	}
	if *fig == 0 || *fig == 3 {
		section("Figure 3: PPS exploration for proc outerVarUse")
		if *ppsdot {
			out, err := uafcheck.PPSStateDOT("figure1.chpl", fig1, "outerVarUse")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Print(out)
		} else {
			printTrace("figure1.chpl", fig1, "outerVarUse")
		}
		printWarnings("figure1.chpl", fig1)
	}
	if *fig == 0 || *fig == 7 {
		section("Figure 7: CCFG and PPS exploration for proc multipleUse (Figure 6)")
		printCCFG("figure6.chpl", fig6, "multipleUse", *dot)
		printTrace("figure6.chpl", fig6, "multipleUse")
		printWarnings("figure6.chpl", fig6)
	}
}

func read(dir, name string) string {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		fmt.Fprintf(os.Stderr, "uaffigures: %v (run from the repository root or pass -testdata)\n", err)
		os.Exit(1)
	}
	return string(data)
}

func section(title string) {
	fmt.Println()
	fmt.Println("==== " + title)
}

func printCCFG(name, src, proc string, dot bool) {
	render := uafcheck.CCFGText
	if dot {
		render = uafcheck.CCFGDot
	}
	out, err := render(name, src, proc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(out)
}

func printTrace(name, src, proc string) {
	out, err := uafcheck.PPSTrace(name, src, proc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(out)
}

func printWarnings(name, src string) {
	rep, err := uafcheck.AnalyzeContext(context.Background(), name, src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, w := range rep.Warnings {
		fmt.Println(w)
	}
}
