package sym

import (
	"fmt"
	"reflect"
	"testing"

	"uafcheck/internal/ast"
	"uafcheck/internal/corpus"
	"uafcheck/internal/fuzzseed"
	"uafcheck/internal/parser"
	"uafcheck/internal/source"
)

// checkMatchesResolve parses src and fails unless Check appends exactly
// the diagnostics Resolve appends (text, span, severity and order), and
// unless the parser's begin count agrees with ast.HasBegin.
func checkMatchesResolve(t *testing.T, name, src string) {
	t.Helper()
	mod := parser.ParseSource(name, src, &source.Diagnostics{})
	if (mod.Begins > 0) != ast.HasBegin(mod) {
		t.Fatalf("%s: Module.Begins = %d but ast.HasBegin = %t", name, mod.Begins, ast.HasBegin(mod))
	}
	resolved, checked := &source.Diagnostics{}, &source.Diagnostics{}
	Resolve(mod, resolved)
	Check(mod, checked)
	if !reflect.DeepEqual(resolved.All(), checked.All()) {
		t.Fatalf("%s: Check and Resolve disagree\nResolve:\n%s\nCheck:\n%s", name, resolved, checked)
	}
}

// resolverErrors each trip one resolver diagnostic, so the comparison
// has every kind of report to compare; the corpora above are nearly all
// clean.
var resolverErrors = []string{
	"proc p() { var x: int; var x: int; }",
	"proc p() { y = 1; }",
	"proc p() { q(); }",
	"proc p() { var x: int; x.readFE(); }",
	"proc p() { var s$: sync int; s$.readFF(); }",
	"proc p() { var x: int; begin with (ref z) { x = 1; } }",
	"proc p() { var s$: sync int; begin with (ref s$) { s$.writeEF(1); } }",
}

// TestCheckMatchesResolve runs the table-free name check and the full
// resolver side by side over the whole Table I corpus, every checked-in
// program, the lexer's and parser's fuzz seeds and one input per
// resolver diagnostic.
func TestCheckMatchesResolve(t *testing.T) {
	for _, tc := range corpus.Generate(corpus.DefaultParams(1711)) {
		checkMatchesResolve(t, tc.Name+".chpl", tc.Source)
	}
	programs, err := fuzzseed.Programs()
	if err != nil {
		t.Fatal(err)
	}
	if len(programs) == 0 {
		t.Fatal("no checked-in programs found")
	}
	for i, src := range programs {
		checkMatchesResolve(t, fmt.Sprintf("program%d.chpl", i), src)
	}
	for i, src := range append(append([]string(nil), fuzzseed.Lexer...), fuzzseed.Parser...) {
		checkMatchesResolve(t, fmt.Sprintf("seed%d.chpl", i), src)
	}
	for _, src := range resolverErrors {
		diags := &source.Diagnostics{}
		Check(parser.ParseSource("t.chpl", src, diags), diags)
		if len(diags.All()) != 1 {
			t.Errorf("%q: want one diagnostic, got\n%s", src, diags)
		}
		checkMatchesResolve(t, "t.chpl", src)
	}
}

// FuzzCheck asserts the equivalence on arbitrary input.
func FuzzCheck(f *testing.F) {
	programs, err := fuzzseed.Programs()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range append(append(programs, fuzzseed.Parser...), resolverErrors...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkMatchesResolve(t, "fuzz.chpl", src)
	})
}
