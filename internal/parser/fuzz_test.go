package parser

import (
	"testing"

	"uafcheck/internal/fuzzseed"
	"uafcheck/internal/source"
)

// seedParseCorpus feeds every checked-in .chpl program plus the
// parser's crasher seeds to the fuzzer.
func seedParseCorpus(f *testing.F) {
	f.Helper()
	programs, err := fuzzseed.Programs()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range append(programs, fuzzseed.Parser...) {
		f.Add(s)
	}
}

// FuzzParse asserts the parser's total-function contract: any byte
// string produces a module (possibly empty) plus diagnostics — never a
// panic, never a hang. The analysis pipeline's crash isolation is the
// backstop; this is the front line.
func FuzzParse(f *testing.F) {
	seedParseCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		diags := &source.Diagnostics{}
		mod := ParseSource("fuzz.chpl", src, diags)
		if mod == nil {
			t.Fatal("ParseSource returned a nil module")
		}
	})
}

// TestParserCrasherRegressions pins the crasher corpus as a plain test
// so the inputs are exercised on every `go test` run, not only under
// `go test -fuzz`.
func TestParserCrasherRegressions(t *testing.T) {
	for i, src := range fuzzseed.Parser {
		diags := &source.Diagnostics{}
		mod := ParseSource("crasher.chpl", src, diags)
		if mod == nil {
			t.Errorf("case %d: nil module", i)
		}
	}
}
