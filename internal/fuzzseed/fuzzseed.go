// Package fuzzseed holds the seed inputs of the front end's fuzz
// targets (lexer FuzzLex, parser FuzzParse, sym FuzzCheck) so the
// targets, and the plain tests that replay their seeds, share one list:
// the repository's checked-in .chpl programs plus adversarial snippets
// aimed at the lexer's and the parser's recovery paths. Only tests
// import it.
package fuzzseed

import (
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Programs returns the text of every .chpl file under the repository's
// testdata directory, in lexical path order.
func Programs() ([]string, error) {
	_, self, _, _ := runtime.Caller(0)
	root := filepath.Join(filepath.Dir(self), "..", "..", "testdata")
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".chpl") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out = append(out, string(data))
		return nil
	})
	return out, err
}

// Lexer are snippets aimed at the lexer: unterminated strings and
// comments, stray bytes, malformed literals.
var Lexer = []string{
	"",
	"proc main() { var done$: sync bool; begin { done$ = true; } done$; }",
	"\"unterminated",
	"// comment only",
	"/* block", // unterminated block comment
	"var x = 0x;;;$$$",
	"\x00\xff\xfe",
	"proc p(){begin with (ref x, in y){x=y..y;}}",
}

// Parser are regression seeds for classes of input that crash naive
// recursive-descent parsers: unterminated constructs, deep nesting
// (stack exhaustion), recovery loops, and malformed literals.
var Parser = []string{
	"",
	";",
	"}",
	"proc",
	"proc p(",
	"proc p() {",
	"proc p() { var x; }",
	"proc p() { if }",
	"proc p() { x.; }",
	"proc p() { x.y.z(); }",
	"proc p() { (1)(2); }",
	"var x = \"abc", // unterminated string initializer
	"proc p() { return 99999999999999999999999999; }",
	"begin { }", // begin outside a proc
	strings.Repeat("proc p() { ", 50),
	// Nesting bombs: without the parser's depth budget each of these
	// turns input length into Go stack depth.
	"proc p() { x = " + strings.Repeat("(", 100000) + "1;}",
	"proc p() " + strings.Repeat("{", 100000),
	"proc p() { x = " + strings.Repeat("-", 100000) + "1; }",
	"proc p() { " + strings.Repeat("if (x) { ", 2000) + "}",
	"proc p() { " + strings.Repeat("if (x) {} else if (x) {} ", 2000) + "}",
	"proc p() { " + strings.Repeat("begin { ", 5000) + "}",
}
