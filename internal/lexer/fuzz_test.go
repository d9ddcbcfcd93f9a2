package lexer

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uafcheck/internal/source"
	"uafcheck/internal/token"
)

// seedCorpus feeds every checked-in .chpl program plus a few adversarial
// snippets to the fuzzer (shared with FuzzParse).
func seedCorpus(f *testing.F) {
	f.Helper()
	for _, dir := range []string{"../../testdata", "../../testdata/suite"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".chpl") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err == nil {
				f.Add(string(data))
			}
		}
	}
	for _, s := range []string{
		"",
		"proc main() { var done$: sync bool; begin { done$ = true; } done$; }",
		"\"unterminated",
		"// comment only",
		"/* block", // unterminated block comment
		"var x = 0x;;;$$$",
		"\x00\xff\xfe",
		"proc p(){begin with (ref x, in y){x=y..y;}}",
	} {
		f.Add(s)
	}
}

// FuzzLex asserts the lexer's total-function contract on arbitrary
// bytes: never panic, always terminate with exactly one trailing EOF,
// and make progress on every token (non-progress would hang real
// callers, so it fails the fuzz run instead).
func FuzzLex(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		lx := New(source.NewFile("fuzz.chpl", src))
		// Bound iterations: every token spans at least one byte except the
		// final EOF, so len(src)+1 tokens is the theoretical maximum.
		limit := len(src) + 2
		prevEnd := -1
		for i := 0; ; i++ {
			if i > limit {
				t.Fatalf("lexer emitted more than %d tokens for %d input bytes", limit, len(src))
			}
			tok := lx.Next()
			if tok.Kind == token.EOF {
				break
			}
			if tok.Span.End <= prevEnd {
				t.Fatalf("lexer did not advance: token %v ends at %d after previous end %d",
					tok, tok.Span.End, prevEnd)
			}
			prevEnd = tok.Span.End
		}
	})
}
