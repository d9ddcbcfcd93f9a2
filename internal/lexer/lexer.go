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
	file *source.File
	src  string
	pos  int
	// Diags collects the problems found so far, in scan order. The
	// lexer owns the list, so a parser can hold its lexer by value
	// without pointing into itself.
	Diags source.Diagnostics
}

// New returns a Lexer over file.
func New(file *source.File) *Lexer {
	return &Lexer{file: file, src: file.Content}
}

func (lx *Lexer) errorf(start, end int, format string, args ...any) {
	lx.Diags.Addf(lx.file, source.Span{Start: source.Pos(start), End: source.Pos(end)},
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

	if k, w := operator(c, lx.peekAt(1)); w > 0 {
		lx.pos += w
		return lx.tok(k, start)
	}

	lx.pos++
	lx.errorf(start, lx.pos, "illegal character %q", string(c))
	return token.Token{Kind: token.Illegal, Lit: string(c), Span: token.Span{Start: start, End: lx.pos}}
}

// operator classifies the operator that starts with c when d follows
// it, longest match first, and returns its kind and width in bytes. A
// width of 0 means c starts no operator. Comments are split off before
// this, so '/' here is always division.
func operator(c, d byte) (token.Kind, int) {
	switch c {
	case '+':
		switch d {
		case '=':
			return token.PlusEq, 2
		case '+':
			return token.PlusPlus, 2
		}
		return token.Plus, 1
	case '-':
		switch d {
		case '=':
			return token.MinusEq, 2
		case '-':
			return token.MinusMinus, 2
		}
		return token.Minus, 1
	case '*':
		if d == '=' {
			return token.TimesEq, 2
		}
		return token.Star, 1
	case '=':
		if d == '=' {
			return token.Eq, 2
		}
		return token.Assign, 1
	case '!':
		if d == '=' {
			return token.NotEq, 2
		}
		return token.Not, 1
	case '<':
		if d == '=' {
			return token.LtEq, 2
		}
		return token.Lt, 1
	case '>':
		if d == '=' {
			return token.GtEq, 2
		}
		return token.Gt, 1
	case '.':
		if d == '.' {
			return token.DotDot, 2
		}
		return token.Dot, 1
	case '&':
		if d == '&' {
			return token.AndAnd, 2
		}
	case '|':
		if d == '|' {
			return token.OrOr, 2
		}
	case '/':
		return token.Slash, 1
	case '%':
		return token.Percent, 1
	case '(':
		return token.LParen, 1
	case ')':
		return token.RParen, 1
	case '{':
		return token.LBrace, 1
	case '}':
		return token.RBrace, 1
	case '[':
		return token.LBracket, 1
	case ']':
		return token.RBracket, 1
	case ',':
		return token.Comma, 1
	case ';':
		return token.Semicolon, 1
	case ':':
		return token.Colon, 1
	}
	return token.Illegal, 0
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
	return lx.tok(token.Lookup(lx.src[start:lx.pos]), start)
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
	return lx.tok(token.StringLit, start)
}
