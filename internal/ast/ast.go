// Package ast defines the abstract syntax tree for MiniChapel.
//
// The tree mirrors the constructs the paper's analysis observes: procedure
// declarations (including nested ones), variable declarations with plain /
// sync / single / atomic types, begin statements with capture intents,
// sync blocks, branches, loops, assignments, sync-variable reads/writes
// and calls.
package ast

import (
	"uafcheck/internal/source"
)

// Node is the common interface of all AST nodes.
type Node interface {
	Span() source.Span
}

// ---------------------------------------------------------------- types

// TypeKind enumerates MiniChapel variable types.
type TypeKind int

const (
	TypeInt TypeKind = iota
	TypeBool
	TypeString
	TypeVoid
)

// String returns the Chapel spelling of the type.
func (t TypeKind) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeBool:
		return "bool"
	case TypeString:
		return "string"
	case TypeVoid:
		return "void"
	}
	return "?"
}

// SyncQual is the synchronization qualifier on a variable declaration.
type SyncQual int

const (
	// QualNone marks an ordinary variable.
	QualNone SyncQual = iota
	// QualSync marks a `sync T` variable (full/empty, readFE/writeEF).
	QualSync
	// QualSingle marks a `single T` variable (write-once, readFF).
	QualSingle
	// QualAtomic marks an `atomic T` variable (non-blocking ops).
	QualAtomic
)

// String returns the Chapel spelling of the qualifier.
func (q SyncQual) String() string {
	switch q {
	case QualNone:
		return ""
	case QualSync:
		return "sync"
	case QualSingle:
		return "single"
	case QualAtomic:
		return "atomic"
	}
	return "?"
}

// Type is a (possibly qualified) MiniChapel type.
type Type struct {
	Qual SyncQual
	Kind TypeKind
}

// String returns the Chapel spelling, e.g. "sync bool".
func (t Type) String() string {
	if t.Qual == QualNone {
		return t.Kind.String()
	}
	return t.Qual.String() + " " + t.Kind.String()
}

// ---------------------------------------------------------------- exprs

// Expr is the interface of expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Ident is a name reference.
type Ident struct {
	Name string
	Sp   source.Span
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Sp    source.Span
}

// BoolLit is a boolean literal.
type BoolLit struct {
	Value bool
	Sp    source.Span
}

// StringLit is a string literal (value excludes quotes, escapes resolved).
type StringLit struct {
	Value string
	Sp    source.Span
}

// BinaryExpr is a binary operation; Op is a token spelling such as "+".
type BinaryExpr struct {
	Op   string
	X, Y Expr
	Sp   source.Span
}

// UnaryExpr is a prefix operation ("!", "-").
type UnaryExpr struct {
	Op string
	X  Expr
	Sp source.Span
}

// CallExpr is a procedure call f(args...).
type CallExpr struct {
	Fun  *Ident
	Args []Expr
	Sp   source.Span
}

// MethodCallExpr is recv.method(args...) — used for sync-variable
// readFE/readFF/writeEF/writeXF and atomic read/write/fetchAdd etc.
type MethodCallExpr struct {
	Recv   *Ident
	Method string
	Args   []Expr
	Sp     source.Span
}

// RangeExpr is lo..hi, used only in for headers.
type RangeExpr struct {
	Lo, Hi Expr
	Sp     source.Span
}

func (e *Ident) Span() source.Span          { return e.Sp }
func (e *IntLit) Span() source.Span         { return e.Sp }
func (e *BoolLit) Span() source.Span        { return e.Sp }
func (e *StringLit) Span() source.Span      { return e.Sp }
func (e *BinaryExpr) Span() source.Span     { return e.Sp }
func (e *UnaryExpr) Span() source.Span      { return e.Sp }
func (e *CallExpr) Span() source.Span       { return e.Sp }
func (e *MethodCallExpr) Span() source.Span { return e.Sp }
func (e *RangeExpr) Span() source.Span      { return e.Sp }

func (*Ident) exprNode()          {}
func (*IntLit) exprNode()         {}
func (*BoolLit) exprNode()        {}
func (*StringLit) exprNode()      {}
func (*BinaryExpr) exprNode()     {}
func (*UnaryExpr) exprNode()      {}
func (*CallExpr) exprNode()       {}
func (*MethodCallExpr) exprNode() {}
func (*RangeExpr) exprNode()      {}

// ---------------------------------------------------------------- stmts

// Stmt is the interface of statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// VarDecl declares a variable: `[config] (var|const) name : Type [= init];`.
type VarDecl struct {
	Config bool
	Const  bool
	Name   *Ident
	Type   Type
	Init   Expr // may be nil
	Sp     source.Span
}

// AssignStmt is `lhs op rhs;` where op is "=", "+=", "-=", "*=".
// For a sync/single variable on the left, `=` lowers to writeEF.
type AssignStmt struct {
	Lhs *Ident
	Op  string
	Rhs Expr
	Sp  source.Span
}

// IncDecStmt is `x++;` or `x--;`.
type IncDecStmt struct {
	X  *Ident
	Op string // "++" or "--"
	Sp source.Span
}

// ExprStmt is an expression in statement position. A bare sync-variable
// identifier (`doneA$;`) is the Chapel idiom for a blocking readFE and is
// represented as an ExprStmt wrapping an Ident.
type ExprStmt struct {
	X  Expr
	Sp source.Span
}

// CallStmt is a call in statement position: writeln(...), f(...), or a
// method call such as done$.writeEF(true) or count.fetchAdd(1).
type CallStmt struct {
	X  Expr // *CallExpr or *MethodCallExpr
	Sp source.Span
}

// Intent is a begin-with capture intent.
type Intent int

const (
	// IntentRef captures the outer variable by reference (`ref x`);
	// accesses target the original memory location.
	IntentRef Intent = iota
	// IntentIn captures by value (`in x`); the task works on a local
	// copy and all accesses inside the task are safe.
	IntentIn
)

// String returns "ref" or "in".
func (i Intent) String() string {
	if i == IntentIn {
		return "in"
	}
	return "ref"
}

// WithClause is one `ref x` / `in x` entry of a begin's with-list.
type WithClause struct {
	Intent Intent
	Name   *Ident
}

// BeginStmt is `begin [with (...)] { body }` — a fire-and-forget task.
type BeginStmt struct {
	With []WithClause
	Body *BlockStmt
	// Label is a stable display name assigned by the parser ("TASK A",
	// "TASK B", ... in creation order) for readable reports.
	Label string
	Sp    source.Span
}

// SyncStmt is `sync { body }` — a fence that blocks the parent until all
// tasks created inside the block complete.
type SyncStmt struct {
	Body *BlockStmt
	Sp   source.Span
}

// IfStmt is `if (cond) { } [else { }]`.
type IfStmt struct {
	Cond Expr
	Then *BlockStmt
	Else *BlockStmt // may be nil
	Sp   source.Span
}

// WhileStmt is `while (cond) { }`.
type WhileStmt struct {
	Cond Expr
	Body *BlockStmt
	Sp   source.Span
}

// ForStmt is `for i in lo..hi { }`.
type ForStmt struct {
	Var   *Ident
	Range *RangeExpr
	Body  *BlockStmt
	Sp    source.Span
}

// ReturnStmt is `return [expr];`.
type ReturnStmt struct {
	Value Expr // may be nil
	Sp    source.Span
}

// BlockStmt is `{ stmts }`. Every block introduces a scope.
type BlockStmt struct {
	Stmts []Stmt
	Sp    source.Span
}

// ProcDecl declares a procedure. Procedures may nest (Chapel function
// nesting, §I); a nested proc can access live variables of its parent.
type ProcDecl struct {
	Name   *Ident
	Params []Param
	Ret    Type
	Body   *BlockStmt
	Sp     source.Span
}

// Param is one formal parameter, optionally by-reference.
type Param struct {
	ByRef bool
	Name  *Ident
	Type  Type
}

// ProcStmt wraps a nested procedure declaration in statement position.
type ProcStmt struct {
	Proc *ProcDecl
	Sp   source.Span
}

func (s *VarDecl) Span() source.Span    { return s.Sp }
func (s *AssignStmt) Span() source.Span { return s.Sp }
func (s *IncDecStmt) Span() source.Span { return s.Sp }
func (s *ExprStmt) Span() source.Span   { return s.Sp }
func (s *CallStmt) Span() source.Span   { return s.Sp }
func (s *BeginStmt) Span() source.Span  { return s.Sp }
func (s *SyncStmt) Span() source.Span   { return s.Sp }
func (s *IfStmt) Span() source.Span     { return s.Sp }
func (s *WhileStmt) Span() source.Span  { return s.Sp }
func (s *ForStmt) Span() source.Span    { return s.Sp }
func (s *ReturnStmt) Span() source.Span { return s.Sp }
func (s *BlockStmt) Span() source.Span  { return s.Sp }
func (s *ProcStmt) Span() source.Span   { return s.Sp }
func (s *ProcDecl) Span() source.Span   { return s.Sp }

func (*VarDecl) stmtNode()    {}
func (*AssignStmt) stmtNode() {}
func (*IncDecStmt) stmtNode() {}
func (*ExprStmt) stmtNode()   {}
func (*CallStmt) stmtNode()   {}
func (*BeginStmt) stmtNode()  {}
func (*SyncStmt) stmtNode()   {}
func (*IfStmt) stmtNode()     {}
func (*WhileStmt) stmtNode()  {}
func (*ForStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode() {}
func (*BlockStmt) stmtNode()  {}
func (*ProcStmt) stmtNode()   {}

// ---------------------------------------------------------------- module

// Module is one parsed source file: a list of top-level procedures plus
// top-level config constants.
type Module struct {
	File    *source.File
	Configs []*VarDecl
	Procs   []*ProcDecl
	// Idents counts the Ident nodes the parser made for the file. The
	// resolver sizes its use map with it; 0 (a hand-built tree) only
	// loses that sizing.
	Idents int
	// Begins counts the begin statements the parser made for the file.
	// A file with none has no analysis roots, so the pipeline can tell
	// that from the count instead of walking the tree (HasBegin). A
	// hand-built tree leaves it 0; only parser output carries it.
	Begins int
}

// Span covers the whole file.
func (m *Module) Span() source.Span {
	return source.Span{Start: 0, End: source.Pos(len(m.File.Content))}
}

// Proc returns the top-level procedure with the given name, or nil.
func (m *Module) Proc(name string) *ProcDecl {
	for _, p := range m.Procs {
		if p.Name.Name == name {
			return p
		}
	}
	return nil
}
