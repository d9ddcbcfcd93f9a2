package lexer

import (
	"testing"
	"testing/quick"

	"uafcheck/internal/source"
	"uafcheck/internal/token"
)

// tokenize scans the whole file through Next, dropping comments, and
// returns the token stream terminated by an EOF token.
func tokenize(file *source.File, diags *source.Diagnostics) []token.Token {
	lx := New(file)
	var toks []token.Token
	for {
		t := lx.Next()
		if t.Kind == token.Comment {
			continue
		}
		toks = append(toks, t)
		if t.Kind == token.EOF {
			for _, d := range lx.Diags.All() {
				diags.Add(d)
			}
			return toks
		}
	}
}

func lex(t *testing.T, src string) ([]token.Token, *source.Diagnostics) {
	t.Helper()
	diags := &source.Diagnostics{}
	toks := tokenize(source.NewFile("t.chpl", src), diags)
	return toks, diags
}

func kinds(toks []token.Token) []token.Kind {
	out := make([]token.Kind, 0, len(toks))
	for _, tk := range toks {
		out = append(out, tk.Kind)
	}
	return out
}

func expectKinds(t *testing.T, src string, want ...token.Kind) {
	t.Helper()
	toks, diags := lex(t, src)
	if diags.HasErrors() {
		t.Fatalf("lex(%q) errors:\n%s", src, diags)
	}
	want = append(want, token.EOF)
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("lex(%q) = %v, want %v", src, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("lex(%q)[%d] = %v, want %v", src, i, got[i], want[i])
		}
	}
}

func TestBasicTokens(t *testing.T) {
	expectKinds(t, "var x: int = 10;",
		token.KwVar, token.Ident, token.Colon, token.KwInt,
		token.Assign, token.IntLit, token.Semicolon)
	expectKinds(t, "begin with (ref x) { }",
		token.KwBegin, token.KwWith, token.LParen, token.KwRef,
		token.Ident, token.RParen, token.LBrace, token.RBrace)
	expectKinds(t, "a + b * c - d / e % f",
		token.Ident, token.Plus, token.Ident, token.Star, token.Ident,
		token.Minus, token.Ident, token.Slash, token.Ident, token.Percent, token.Ident)
}

func TestSyncVarDollarSuffix(t *testing.T) {
	toks, diags := lex(t, "doneA$ = true;")
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	if toks[0].Kind != token.Ident || toks[0].Lit != "doneA$" {
		t.Fatalf("sync-var name lexed as %v", toks[0])
	}
	if toks[1].Kind != token.Assign {
		t.Fatalf("after $ expected =, got %v", toks[1])
	}
}

func TestTwoCharOperators(t *testing.T) {
	expectKinds(t, "x += 1; y -= 2; z *= 3;",
		token.Ident, token.PlusEq, token.IntLit, token.Semicolon,
		token.Ident, token.MinusEq, token.IntLit, token.Semicolon,
		token.Ident, token.TimesEq, token.IntLit, token.Semicolon)
	expectKinds(t, "a == b != c <= d >= e && f || g",
		token.Ident, token.Eq, token.Ident, token.NotEq, token.Ident,
		token.LtEq, token.Ident, token.GtEq, token.Ident,
		token.AndAnd, token.Ident, token.OrOr, token.Ident)
	expectKinds(t, "x++; x--;",
		token.Ident, token.PlusPlus, token.Semicolon,
		token.Ident, token.MinusMinus, token.Semicolon)
}

func TestRangeVsDots(t *testing.T) {
	expectKinds(t, "1..10", token.IntLit, token.DotDot, token.IntLit)
	expectKinds(t, "for i in 1..n { }",
		token.KwFor, token.Ident, token.KwIn, token.IntLit,
		token.DotDot, token.Ident, token.LBrace, token.RBrace)
	expectKinds(t, "f.read()", token.Ident, token.Dot, token.Ident,
		token.LParen, token.RParen)
}

func TestComments(t *testing.T) {
	expectKinds(t, "x // trailing comment\n y",
		token.Ident, token.Ident)
	expectKinds(t, "a /* block */ b", token.Ident, token.Ident)
	expectKinds(t, "a /* nested /* deeper */ still */ b", token.Ident, token.Ident)
}

func TestUnterminatedBlockComment(t *testing.T) {
	_, diags := lex(t, "a /* never closed")
	if !diags.HasErrors() {
		t.Error("unterminated block comment not reported")
	}
}

func TestStrings(t *testing.T) {
	toks, diags := lex(t, `writeln("hello world", "a\"b");`)
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	if toks[2].Kind != token.StringLit || toks[2].Lit != `"hello world"` {
		t.Fatalf("string lexed as %v", toks[2])
	}
	if toks[4].Kind != token.StringLit {
		t.Fatalf("escaped string lexed as %v", toks[4])
	}
}

func TestUnterminatedString(t *testing.T) {
	_, diags := lex(t, `"open`)
	if !diags.HasErrors() {
		t.Error("unterminated string not reported")
	}
	_, diags = lex(t, "\"across\nlines\"")
	if !diags.HasErrors() {
		t.Error("newline in string not reported")
	}
}

func TestIllegalCharacter(t *testing.T) {
	toks, diags := lex(t, "a # b")
	if !diags.HasErrors() {
		t.Error("illegal character not reported")
	}
	found := false
	for _, tk := range toks {
		if tk.Kind == token.Illegal {
			found = true
		}
	}
	if !found {
		t.Error("no Illegal token produced")
	}
}

func TestFloatLiteralRejected(t *testing.T) {
	_, diags := lex(t, "var x = 1.5;")
	if !diags.HasErrors() {
		t.Error("float literal should be rejected in MiniChapel")
	}
}

func TestSpansCoverSource(t *testing.T) {
	src := "var abc = 42;"
	toks, _ := lex(t, src)
	for _, tk := range toks {
		if tk.Kind == token.EOF {
			continue
		}
		if tk.Span.Start < 0 || tk.Span.End > len(src) || tk.Span.Start >= tk.Span.End {
			t.Errorf("token %v has bad span %+v", tk, tk.Span)
		}
		if tk.Lit != "" && src[tk.Span.Start:tk.Span.End] != tk.Lit {
			t.Errorf("token %v span text %q != lit %q", tk,
				src[tk.Span.Start:tk.Span.End], tk.Lit)
		}
	}
}

// Property: the lexer terminates on arbitrary byte soup, always ends with
// EOF, and token spans are monotonically non-decreasing.
func TestLexerTotalProperty(t *testing.T) {
	check := func(data []byte) bool {
		diags := &source.Diagnostics{}
		toks := tokenize(source.NewFile("fuzz", string(data)), diags)
		if len(toks) == 0 || toks[len(toks)-1].Kind != token.EOF {
			return false
		}
		prev := 0
		for _, tk := range toks {
			if tk.Span.Start < prev {
				return false
			}
			prev = tk.Span.Start
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: lexing is insensitive to the amount of interleaved
// whitespace between tokens.
func TestWhitespaceInsensitive(t *testing.T) {
	a, _ := lex(t, "proc f(){var x:int=1;writeln(x);}")
	b, _ := lex(t, "proc  f ( ) {\n\tvar x : int = 1 ;\n\twriteln ( x ) ;\n}")
	ka, kb := kinds(a), kinds(b)
	if len(ka) != len(kb) {
		t.Fatalf("token counts differ: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("kind %d differs: %v vs %v", i, ka[i], kb[i])
		}
	}
}
