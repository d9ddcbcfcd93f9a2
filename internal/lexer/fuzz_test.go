package lexer

import (
	"testing"

	"uafcheck/internal/fuzzseed"
	"uafcheck/internal/source"
	"uafcheck/internal/token"
)

// seedCorpus feeds every checked-in .chpl program plus the lexer's
// adversarial snippets to the fuzzer.
func seedCorpus(f *testing.F) {
	f.Helper()
	programs, err := fuzzseed.Programs()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range append(programs, fuzzseed.Lexer...) {
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
