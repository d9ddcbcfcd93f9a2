// Package token defines the lexical tokens of MiniChapel, the Chapel
// subset consumed by the use-after-free analysis. The subset covers every
// construct the paper's compiler pass observes: procedures (including
// nested ones), variable declarations with sync/single/atomic types,
// begin statements with ref/in intents, sync blocks, branches, loops and
// the sync-variable read/write forms.
package token

import "fmt"

// Kind enumerates token kinds.
type Kind int

// Token kinds. Keyword kinds sit between keywordBeg and keywordEnd.
const (
	Illegal Kind = iota
	EOF
	Comment

	// Literals and identifiers.
	Ident     // x, doneA$ (sync-var names keep their $ suffix)
	IntLit    // 123
	BoolLit   // true / false (also keywords; classified as BoolLit)
	StringLit // "hello"

	// Operators and delimiters.
	Assign     // =
	PlusEq     // +=
	MinusEq    // -=
	TimesEq    // *=
	Plus       // +
	Minus      // -
	Star       // *
	Slash      // /
	Percent    // %
	PlusPlus   // ++
	MinusMinus // --
	Eq         // ==
	NotEq      // !=
	Lt         // <
	LtEq       // <=
	Gt         // >
	GtEq       // >=
	AndAnd     // &&
	OrOr       // ||
	Not        // !
	LParen     // (
	RParen     // )
	LBrace     // {
	RBrace     // }
	LBracket   // [
	RBracket   // ]
	Comma      // ,
	Semicolon  // ;
	Colon      // :
	Dot        // .
	DotDot     // ..

	keywordBeg
	KwProc
	KwVar
	KwConst
	KwConfig
	KwBegin
	KwSync
	KwSingle
	KwAtomic
	KwWith
	KwRef
	KwIn
	KwIf
	KwElse
	KwWhile
	KwFor
	KwReturn
	KwTrue
	KwFalse
	KwInt
	KwBool
	KwString
	KwVoid
	keywordEnd
)

// kindNames spells every kind; Lookup and the lexer's operator switch
// must agree with it (lexer tests check this for every kind).
var kindNames = [...]string{
	Illegal:    "ILLEGAL",
	EOF:        "EOF",
	Comment:    "COMMENT",
	Ident:      "IDENT",
	IntLit:     "INT",
	BoolLit:    "BOOL",
	StringLit:  "STRING",
	Assign:     "=",
	PlusEq:     "+=",
	MinusEq:    "-=",
	TimesEq:    "*=",
	Plus:       "+",
	Minus:      "-",
	Star:       "*",
	Slash:      "/",
	Percent:    "%",
	PlusPlus:   "++",
	MinusMinus: "--",
	Eq:         "==",
	NotEq:      "!=",
	Lt:         "<",
	LtEq:       "<=",
	Gt:         ">",
	GtEq:       ">=",
	AndAnd:     "&&",
	OrOr:       "||",
	Not:        "!",
	LParen:     "(",
	RParen:     ")",
	LBrace:     "{",
	RBrace:     "}",
	LBracket:   "[",
	RBracket:   "]",
	Comma:      ",",
	Semicolon:  ";",
	Colon:      ":",
	Dot:        ".",
	DotDot:     "..",
	KwProc:     "proc",
	KwVar:      "var",
	KwConst:    "const",
	KwConfig:   "config",
	KwBegin:    "begin",
	KwSync:     "sync",
	KwSingle:   "single",
	KwAtomic:   "atomic",
	KwWith:     "with",
	KwRef:      "ref",
	KwIn:       "in",
	KwIf:       "if",
	KwElse:     "else",
	KwWhile:    "while",
	KwFor:      "for",
	KwReturn:   "return",
	KwTrue:     "true",
	KwFalse:    "false",
	KwInt:      "int",
	KwBool:     "bool",
	KwString:   "string",
	KwVoid:     "void",
}

// String returns the canonical spelling of the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsKeyword reports whether k is a reserved word.
func (k Kind) IsKeyword() bool { return k > keywordBeg && k < keywordEnd }

// Lookup classifies an identifier spelling: keyword kind if reserved,
// Ident otherwise. true/false map to BoolLit.
func Lookup(ident string) Kind {
	switch ident {
	case "proc":
		return KwProc
	case "var":
		return KwVar
	case "const":
		return KwConst
	case "config":
		return KwConfig
	case "begin":
		return KwBegin
	case "sync":
		return KwSync
	case "single":
		return KwSingle
	case "atomic":
		return KwAtomic
	case "with":
		return KwWith
	case "ref":
		return KwRef
	case "in":
		return KwIn
	case "if":
		return KwIf
	case "else":
		return KwElse
	case "while":
		return KwWhile
	case "for":
		return KwFor
	case "return":
		return KwReturn
	case "true", "false":
		return BoolLit
	case "int":
		return KwInt
	case "bool":
		return KwBool
	case "string":
		return KwString
	case "void":
		return KwVoid
	}
	return Ident
}

// Precedence returns the binary-operator precedence of k (higher binds
// tighter), or 0 if k is not a binary operator.
func (k Kind) Precedence() int {
	switch k {
	case OrOr:
		return 1
	case AndAnd:
		return 2
	case Eq, NotEq, Lt, LtEq, Gt, GtEq:
		return 3
	case DotDot:
		return 4
	case Plus, Minus:
		return 5
	case Star, Slash, Percent:
		return 6
	}
	return 0
}

// Token is one lexeme with its kind, spelling and source span.
type Token struct {
	Kind Kind
	Lit  string // original spelling for Ident/IntLit/BoolLit/StringLit/Comment
	Span Span
}

// Span mirrors source.Span without importing it, to keep token leaf-level.
type Span struct {
	Start, End int
}

// String renders the token for debugging.
func (t Token) String() string {
	switch t.Kind {
	case Ident, IntLit, BoolLit, StringLit, Comment:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	default:
		return t.Kind.String()
	}
}
