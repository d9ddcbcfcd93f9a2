// Package lexer tokenizes MiniChapel source. It follows Chapel's lexical
// conventions for the subset the analysis needs, most importantly the `$`
// suffix on synchronization-variable names (doneA$), which is part of the
// identifier per the paper's naming convention (§II).
package lexer

import (
	"uafcheck/internal/source"
	"uafcheck/internal/token"
)

// Lexer scans one file into tokens.
type Lexer struct {
	file  *source.File
	src   string
	pos   int
	diags *source.Diagnostics
}

// New returns a Lexer over file, reporting problems into diags.
func New(file *source.File, diags *source.Diagnostics) *Lexer {
	return &Lexer{file: file, src: file.Content, diags: diags}
}

func (lx *Lexer) errorf(start, end int, format string, args ...any) {
	lx.diags.Addf(lx.file, source.Span{Start: source.Pos(start), End: source.Pos(end)},
		source.Error, format, args...)
}

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (lx *Lexer) peek() byte {
	if lx.pos < len(lx.src) {
		return lx.src[lx.pos]
	}
	return 0
}

func (lx *Lexer) peekAt(off int) byte {
	if lx.pos+off < len(lx.src) {
		return lx.src[lx.pos+off]
	}
	return 0
}

func (lx *Lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		switch lx.src[lx.pos] {
		case ' ', '\t', '\r', '\n':
			lx.pos++
		default:
			return
		}
	}
}

// Next returns the next token, including Comment tokens.
func (lx *Lexer) Next() token.Token {
	lx.skipSpace()
	start := lx.pos
	if lx.pos >= len(lx.src) {
		return token.Token{Kind: token.EOF, Span: token.Span{Start: start, End: start}}
	}
	c := lx.src[lx.pos]

	switch {
	case isLetter(c):
		return lx.scanIdent()
	case isDigit(c):
		return lx.scanNumber()
	case c == '"':
		return lx.scanString()
	}

	// Comments.
	if c == '/' && lx.peekAt(1) == '/' {
		for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
			lx.pos++
		}
		return lx.tok(token.Comment, start)
	}
	if c == '/' && lx.peekAt(1) == '*' {
		lx.pos += 2
		depth := 1
		for lx.pos < len(lx.src) && depth > 0 {
			if lx.peek() == '/' && lx.peekAt(1) == '*' {
				depth++
				lx.pos += 2
			} else if lx.peek() == '*' && lx.peekAt(1) == '/' {
				depth--
				lx.pos += 2
			} else {
				lx.pos++
			}
		}
		if depth > 0 {
			lx.errorf(start, lx.pos, "unterminated block comment")
		}
		return lx.tok(token.Comment, start)
	}

	// Operators, longest first.
	two := ""
	if lx.pos+1 < len(lx.src) {
		two = lx.src[lx.pos : lx.pos+2]
	}
	if k, ok := twoCharOps[two]; ok {
		lx.pos += 2
		return lx.tok(k, start)
	}
	if k, ok := oneCharOps[c]; ok {
		lx.pos++
		return lx.tok(k, start)
	}

	lx.pos++
	lx.errorf(start, lx.pos, "illegal character %q", string(c))
	return token.Token{Kind: token.Illegal, Lit: string(c), Span: token.Span{Start: start, End: lx.pos}}
}

var twoCharOps = map[string]token.Kind{
	"+=": token.PlusEq,
	"-=": token.MinusEq,
	"*=": token.TimesEq,
	"++": token.PlusPlus,
	"--": token.MinusMinus,
	"==": token.Eq,
	"!=": token.NotEq,
	"<=": token.LtEq,
	">=": token.GtEq,
	"&&": token.AndAnd,
	"||": token.OrOr,
	"..": token.DotDot,
}

var oneCharOps = map[byte]token.Kind{
	'=': token.Assign,
	'+': token.Plus,
	'-': token.Minus,
	'*': token.Star,
	'/': token.Slash,
	'%': token.Percent,
	'<': token.Lt,
	'>': token.Gt,
	'!': token.Not,
	'(': token.LParen,
	')': token.RParen,
	'{': token.LBrace,
	'}': token.RBrace,
	'[': token.LBracket,
	']': token.RBracket,
	',': token.Comma,
	';': token.Semicolon,
	':': token.Colon,
	'.': token.Dot,
}

func (lx *Lexer) tok(k token.Kind, start int) token.Token {
	return token.Token{Kind: k, Lit: lx.src[start:lx.pos], Span: token.Span{Start: start, End: lx.pos}}
}

func (lx *Lexer) scanIdent() token.Token {
	start := lx.pos
	for lx.pos < len(lx.src) && (isLetter(lx.src[lx.pos]) || isDigit(lx.src[lx.pos])) {
		lx.pos++
	}
	// Chapel sync-variable naming convention: trailing $ is part of the
	// identifier (doneA$). Only a single trailing $ is accepted.
	if lx.peek() == '$' {
		lx.pos++
	}
	lit := lx.src[start:lx.pos]
	kind := token.Lookup(lit)
	t := lx.tok(kind, start)
	t.Lit = lit
	return t
}

func (lx *Lexer) scanNumber() token.Token {
	start := lx.pos
	for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
		lx.pos++
	}
	// Guard against "1..10": the .. belongs to the range operator.
	if lx.peek() == '.' && lx.peekAt(1) != '.' && isDigit(lx.peekAt(1)) {
		lx.errorf(start, lx.pos, "floating-point literals are not part of MiniChapel")
		lx.pos++
		for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			lx.pos++
		}
	}
	return lx.tok(token.IntLit, start)
}

func (lx *Lexer) scanString() token.Token {
	start := lx.pos
	lx.pos++ // opening quote
	for lx.pos < len(lx.src) && lx.src[lx.pos] != '"' && lx.src[lx.pos] != '\n' {
		if lx.src[lx.pos] == '\\' && lx.pos+1 < len(lx.src) {
			lx.pos++
		}
		lx.pos++
	}
	if lx.pos >= len(lx.src) || lx.src[lx.pos] != '"' {
		lx.errorf(start, lx.pos, "unterminated string literal")
	} else {
		lx.pos++
	}
	t := lx.tok(token.StringLit, start)
	return t
}
