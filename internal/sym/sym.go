// Package sym performs name resolution and scope construction for
// MiniChapel modules.
//
// The resolver produces the facts the paper's analysis consumes:
//
//   - a lexical scope tree in which procedure bodies, blocks, begin task
//     bodies, sync blocks and loop bodies each open a scope;
//   - a resolution map from every identifier use to its declaration;
//   - classification of variables: plain, sync, single, atomic, config;
//   - capture handling for begin-with clauses: `ref x` keeps uses bound to
//     the outer variable, while `in x` introduces a task-local copy so all
//     uses inside the task are provably safe (paper §I, Task C);
//   - the set of nested procedures, which the lowering stage inlines at
//     call sites to expose hidden outer-variable accesses (paper §III-A).
package sym

import (
	"fmt"
	"strings"

	"uafcheck/internal/ast"
	"uafcheck/internal/source"
)

// Kind classifies a symbol.
type Kind int

const (
	// KindVar is an ordinary variable declaration.
	KindVar Kind = iota
	// KindConst is a const declaration.
	KindConst
	// KindConfig is a top-level config const: program lifetime, never an
	// outer-variable hazard.
	KindConfig
	// KindParam is a procedure formal.
	KindParam
	// KindLoopVar is a for-loop induction variable.
	KindLoopVar
	// KindCopy is a task-local copy introduced by an `in` intent.
	KindCopy
	// KindProc is a procedure name.
	KindProc
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindVar:
		return "var"
	case KindConst:
		return "const"
	case KindConfig:
		return "config"
	case KindParam:
		return "param"
	case KindLoopVar:
		return "loopvar"
	case KindCopy:
		return "copy"
	case KindProc:
		return "proc"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Symbol is one declared name.
type Symbol struct {
	ID    int
	Name  string
	Kind  Kind
	Type  ast.Type
	Decl  ast.Node // *ast.VarDecl, *ast.ProcDecl, begin stmt (for copies), ...
	Scope *Scope   // declaring scope
	// ByRef marks a formal declared `ref name: T`.
	ByRef bool
	// Origin links an `in`-intent copy to the outer variable it copies.
	Origin *Symbol
	// Proc is set for KindProc symbols.
	Proc *ast.ProcDecl
}

// IsSyncVar reports whether the symbol is a sync or single variable —
// the point-to-point synchronization primitives the analysis models.
func (s *Symbol) IsSyncVar() bool {
	return s.Type.Qual == ast.QualSync || s.Type.Qual == ast.QualSingle
}

// IsAtomic reports whether the symbol is an atomic variable.
func (s *Symbol) IsAtomic() bool { return s.Type.Qual == ast.QualAtomic }

// String renders the symbol for diagnostics.
func (s *Symbol) String() string {
	return fmt.Sprintf("%s %s#%d", s.Kind, s.Name, s.ID)
}

// ScopeKind classifies what opened a scope.
type ScopeKind int

const (
	// ScopeModule is the file-level scope holding configs and procs.
	ScopeModule ScopeKind = iota
	// ScopeProc is a procedure body.
	ScopeProc
	// ScopeBlock is a plain block or branch arm.
	ScopeBlock
	// ScopeBegin is a begin task body — the task boundary for
	// outer-variable classification.
	ScopeBegin
	// ScopeSync is a sync { } block.
	ScopeSync
	// ScopeLoop is a while/for body.
	ScopeLoop
)

// String implements fmt.Stringer.
func (k ScopeKind) String() string {
	switch k {
	case ScopeModule:
		return "module"
	case ScopeProc:
		return "proc"
	case ScopeBlock:
		return "block"
	case ScopeBegin:
		return "begin"
	case ScopeSync:
		return "sync"
	case ScopeLoop:
		return "loop"
	}
	return fmt.Sprintf("scope(%d)", int(k))
}

// Scope is one lexical scope.
type Scope struct {
	ID     int
	Kind   ScopeKind
	Parent *Scope
	// ordered holds the scope's symbols in declaration order. Most
	// scopes are small and a backward scan finds a name faster than a
	// map. A scope that outgrows indexFrom symbols (a module or linker
	// scope with many procedures, a long procedure body) also keeps
	// index, each name's latest symbol, so lookups in it stay
	// constant-time.
	ordered []*Symbol
	index   map[string]*Symbol
}

// indexFrom is the symbol count past which a scope builds its index.
const indexFrom = 16

// add appends s to the scope, keeping the index once there is one.
func (sc *Scope) add(s *Symbol) {
	sc.ordered = append(sc.ordered, s)
	switch {
	case sc.index != nil:
		sc.index[s.Name] = s
	case len(sc.ordered) > indexFrom:
		sc.index = make(map[string]*Symbol, 2*len(sc.ordered))
		for _, o := range sc.ordered {
			sc.index[o.Name] = o
		}
	}
}

// Lookup resolves name in this scope or any ancestor; nil if unknown.
func (sc *Scope) Lookup(name string) *Symbol {
	for s := sc; s != nil; s = s.Parent {
		if sym := s.LookupLocal(name); sym != nil {
			return sym
		}
	}
	return nil
}

// LookupLocal resolves name in this scope only. When a name is declared
// twice (a reported redeclaration, or two `in` copies of one variable)
// the latest declaration wins.
func (sc *Scope) LookupLocal(name string) *Symbol {
	if sc.index != nil {
		return sc.index[name]
	}
	for i := len(sc.ordered) - 1; i >= 0; i-- {
		if s := sc.ordered[i]; s.Name == name {
			return s
		}
	}
	return nil
}

// Symbols returns the scope's symbols in declaration order.
func (sc *Scope) Symbols() []*Symbol { return sc.ordered }

// EnclosingBegin returns the nearest enclosing begin scope (possibly sc
// itself), or nil when sc is outside any task.
func (sc *Scope) EnclosingBegin() *Scope {
	for s := sc; s != nil; s = s.Parent {
		if s.Kind == ScopeBegin {
			return s
		}
	}
	return nil
}

// EnclosingProc returns the nearest enclosing proc scope.
func (sc *Scope) EnclosingProc() *Scope {
	for s := sc; s != nil; s = s.Parent {
		if s.Kind == ScopeProc {
			return s
		}
	}
	return nil
}

// TaskDistance counts the begin boundaries crossed walking from sc up to
// target (the declaring scope). A positive distance means an access in sc
// to a variable of target is an outer-variable access (paper §I).
// target must be an ancestor of sc (or sc itself); otherwise -1.
func (sc *Scope) TaskDistance(target *Scope) int {
	n := 0
	for s := sc; s != nil; s = s.Parent {
		if s == target {
			return n
		}
		if s.Kind == ScopeBegin {
			n++
		}
	}
	return -1
}

// Path renders the scope chain for debugging, e.g. "module/proc/begin".
func (sc *Scope) Path() string {
	var parts []string
	for s := sc; s != nil; s = s.Parent {
		parts = append(parts, s.Kind.String())
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}

// SyncOpKind classifies a resolved synchronization operation.
type SyncOpKind int

const (
	// OpNone marks a non-synchronizing method (or plain access).
	OpNone SyncOpKind = iota
	// OpReadFE is the blocking full→empty read on a sync variable.
	OpReadFE
	// OpReadFF is the blocking full-retaining read on a single variable.
	OpReadFF
	// OpWriteEF is the blocking empty→full write on sync/single.
	OpWriteEF
	// OpAtomicRead is a non-blocking atomic read.
	OpAtomicRead
	// OpAtomicWrite is a non-blocking atomic write (incl. fetchAdd etc.).
	OpAtomicWrite
	// OpAtomicWait is waitFor: a spin until the atomic holds the target
	// value. The optional atomics extension (§IV-A sketch, §VII future
	// work) models it as a SINGLE-READ-like wait-until-full event.
	OpAtomicWait
)

// String returns the Chapel method name of the operation.
func (k SyncOpKind) String() string {
	switch k {
	case OpNone:
		return "none"
	case OpReadFE:
		return "readFE"
	case OpReadFF:
		return "readFF"
	case OpWriteEF:
		return "writeEF"
	case OpAtomicRead:
		return "read"
	case OpAtomicWrite:
		return "write"
	case OpAtomicWait:
		return "waitFor"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Blocking reports whether the operation can block the executing task.
func (k SyncOpKind) Blocking() bool {
	switch k {
	case OpReadFE, OpReadFF, OpWriteEF:
		return true
	}
	return false
}

// Info is the resolver output for one module.
type Info struct {
	Module *ast.Module
	// Uses maps every resolved identifier use to its symbol.
	Uses map[*ast.Ident]*Symbol
	// ScopeOf maps scope-opening nodes (module handled separately) to
	// their scope: *ast.ProcDecl, *ast.BlockStmt of begin/sync/branch...
	ScopeOf map[ast.Node]*Scope
	// MethodOps classifies every method call on a resolved receiver;
	// nil until the first one.
	MethodOps map[*ast.MethodCallExpr]SyncOpKind
	// ModuleScope is the root scope.
	ModuleScope *Scope
	// ProcSyms maps proc name symbols (both top-level and nested).
	ProcSyms map[*ast.ProcDecl]*Symbol
	// CopyFor maps (begin, outer symbol) pairs to the in-intent copy;
	// nil until the first copy.
	CopyFor map[*ast.BeginStmt]map[*Symbol]*Symbol
	// UnresolvedCalls lists call identifiers that named no known
	// procedure (after consulting the linker scope, if any). Module
	// analysis promotes these to a typed error; single-file analysis
	// keeps the diagnostic-only behavior.
	UnresolvedCalls []*ast.Ident

	nextSymID   int
	nextScopeID int
	diags       *source.Diagnostics
	file        *source.File
}

// Resolve runs name resolution over the module. Errors are appended to
// diags; resolution is best-effort so later stages can still run on
// partially-broken corpus inputs.
func Resolve(m *ast.Module, diags *source.Diagnostics) *Info {
	return ResolveWith(m, diags, nil)
}

// Check name-checks the module without building Info's tables: it runs
// Resolve's traversal, with the same scopes, symbols and lookups, so it
// appends exactly the diagnostics Resolve would, in the same order, but
// records no Uses, ScopeOf, ProcSyms or MethodOps. It serves callers
// that read only the diagnostics, such as the pipeline on a file
// without a begin, which has no procedure to analyze.
func Check(m *ast.Module, diags *source.Diagnostics) {
	in := &Info{Module: m, diags: diags, file: m.File}
	in.module(nil)
}

// NewLinkerScope returns an empty module-kind scope used to link
// several files into one module: callers pre-fill it with the
// top-level procedure symbols of the *other* files (DeclareExtern) and
// pass it to ResolveWith. The file's own module scope is parented to
// it, so local declarations shadow imports naturally and only calls
// that would otherwise be undefined resolve across files.
func NewLinkerScope() *Scope {
	return &Scope{ID: -1, Kind: ScopeModule}
}

// DeclareExtern registers a foreign top-level procedure in a linker
// scope. The first declaration of a name wins (deterministic given a
// deterministic file order); the returned symbol carries the foreign
// declaration so callers can walk into its body.
func DeclareExtern(sc *Scope, proc *ast.ProcDecl) *Symbol {
	name := proc.Name.Name
	if prev := sc.LookupLocal(name); prev != nil {
		return prev
	}
	s := &Symbol{ID: -(len(sc.ordered) + 1), Name: name, Kind: KindProc,
		Type: proc.Ret, Decl: proc, Scope: sc, Proc: proc}
	sc.add(s)
	return s
}

// ResolveWith is Resolve with an optional linker scope supplying
// module-level procedures defined in other files of the same module.
// Passing nil is exactly Resolve.
func ResolveWith(m *ast.Module, diags *source.Diagnostics, linker *Scope) *Info {
	in := &Info{
		Module: m,
		// Every use is an identifier, so the parser's count sizes the
		// map once.
		Uses:     make(map[*ast.Ident]*Symbol, m.Idents),
		ScopeOf:  make(map[ast.Node]*Scope),
		ProcSyms: make(map[*ast.ProcDecl]*Symbol),
		diags:    diags,
		file:     m.File,
	}
	in.module(linker)
	return in
}

// module is the one traversal behind Resolve and Check.
func (in *Info) module(linker *Scope) {
	m := in.Module
	root := in.newScope(ScopeModule, linker, m)
	in.ModuleScope = root
	for _, cfg := range m.Configs {
		in.declare(root, cfg.Name, KindConfig, cfg.Type, cfg)
		if cfg.Init != nil {
			in.expr(root, cfg.Init)
		}
	}
	// Two passes over procs so mutually-referencing top-level procs
	// resolve regardless of order.
	for _, p := range m.Procs {
		in.declareProc(root, p)
	}
	for _, p := range m.Procs {
		in.proc(root, p)
	}
}

// recording reports whether the traversal builds Info's tables. Check
// leaves Uses nil and skips every write to Uses, ScopeOf, ProcSyms and
// MethodOps through this guard.
func (in *Info) recording() bool { return in.Uses != nil }

func (in *Info) setScope(node ast.Node, sc *Scope) {
	if in.recording() {
		in.ScopeOf[node] = sc
	}
}

func (in *Info) setUse(id *ast.Ident, sym *Symbol) {
	if in.recording() {
		in.Uses[id] = sym
	}
}

func (in *Info) newScope(kind ScopeKind, parent *Scope, node ast.Node) *Scope {
	sc := &Scope{ID: in.nextScopeID, Kind: kind, Parent: parent}
	in.nextScopeID++
	in.setScope(node, sc)
	return sc
}

func (in *Info) declare(sc *Scope, name *ast.Ident, kind Kind, typ ast.Type, decl ast.Node) *Symbol {
	if prev := sc.LookupLocal(name.Name); prev != nil {
		in.diags.Addf(in.file, name.Sp, source.Error,
			"%s redeclared in this scope (previous declaration as %s)", name.Name, prev.Kind)
	}
	sym := &Symbol{ID: in.nextSymID, Name: name.Name, Kind: kind, Type: typ,
		Decl: decl, Scope: sc}
	in.nextSymID++
	sc.add(sym)
	in.setUse(name, sym)
	return sym
}

func (in *Info) declareProc(sc *Scope, p *ast.ProcDecl) {
	sym := in.declare(sc, p.Name, KindProc, p.Ret, p)
	sym.Proc = p
	if in.recording() {
		in.ProcSyms[p] = sym
	}
}

func (in *Info) proc(parent *Scope, p *ast.ProcDecl) {
	sc := in.newScope(ScopeProc, parent, p)
	for _, prm := range p.Params {
		s := in.declare(sc, prm.Name, KindParam, prm.Type, prm.Name)
		s.ByRef = prm.ByRef
	}
	in.stmts(sc, p.Body.Stmts)
	// Register the body block's scope as the proc scope so span lookups
	// through either node agree.
	in.setScope(p.Body, sc)
}

func (in *Info) block(parent *Scope, kind ScopeKind, node ast.Node, b *ast.BlockStmt) *Scope {
	sc := in.newScope(kind, parent, node)
	if node != b {
		in.setScope(b, sc)
	}
	in.stmts(sc, b.Stmts)
	return sc
}

func (in *Info) stmts(sc *Scope, list []ast.Stmt) {
	// Pre-declare nested procs in the scope so calls before the lexical
	// definition resolve (Chapel allows forward use within a scope).
	for _, s := range list {
		if ps, ok := s.(*ast.ProcStmt); ok {
			in.declareProc(sc, ps.Proc)
		}
	}
	for _, s := range list {
		in.stmt(sc, s)
	}
}

func (in *Info) stmt(sc *Scope, s ast.Stmt) {
	switch x := s.(type) {
	case *ast.VarDecl:
		if x.Init != nil {
			in.expr(sc, x.Init)
		}
		kind := KindVar
		if x.Const {
			kind = KindConst
		}
		if x.Config {
			kind = KindConfig
		}
		in.declare(sc, x.Name, kind, x.Type, x)
	case *ast.AssignStmt:
		in.expr(sc, x.Rhs)
		in.useIdent(sc, x.Lhs)
	case *ast.IncDecStmt:
		in.useIdent(sc, x.X)
	case *ast.ExprStmt:
		in.expr(sc, x.X)
	case *ast.CallStmt:
		in.expr(sc, x.X)
	case *ast.BeginStmt:
		in.begin(sc, x)
	case *ast.SyncStmt:
		in.block(sc, ScopeSync, x, x.Body)
	case *ast.IfStmt:
		in.expr(sc, x.Cond)
		in.block(sc, ScopeBlock, x.Then, x.Then)
		if x.Else != nil {
			in.block(sc, ScopeBlock, x.Else, x.Else)
		}
	case *ast.WhileStmt:
		in.expr(sc, x.Cond)
		in.block(sc, ScopeLoop, x, x.Body)
	case *ast.ForStmt:
		in.expr(sc, x.Range.Lo)
		in.expr(sc, x.Range.Hi)
		loop := in.newScope(ScopeLoop, sc, x)
		in.setScope(x.Body, loop)
		in.declare(loop, x.Var, KindLoopVar, ast.Type{Kind: ast.TypeInt}, x.Var)
		in.stmts(loop, x.Body.Stmts)
	case *ast.ReturnStmt:
		if x.Value != nil {
			in.expr(sc, x.Value)
		}
	case *ast.BlockStmt:
		in.block(sc, ScopeBlock, x, x)
	case *ast.ProcStmt:
		// Symbol already declared by stmts pre-pass; resolve the body in
		// a child scope of the *defining* scope — Chapel nested functions
		// see the live variables of the parent procedure (paper §I).
		in.proc(sc, x.Proc)
	}
}

func (in *Info) begin(sc *Scope, b *ast.BeginStmt) {
	task := in.newScope(ScopeBegin, sc, b)
	in.setScope(b.Body, task)
	var copies map[*Symbol]*Symbol
	for _, w := range b.With {
		outer := sc.Lookup(w.Name.Name)
		if outer == nil {
			in.diags.Addf(in.file, w.Name.Sp, source.Error,
				"with-clause names unknown variable %q", w.Name.Name)
			continue
		}
		in.setUse(w.Name, outer)
		if outer.IsSyncVar() {
			in.diags.Addf(in.file, w.Name.Sp, source.Note,
				"sync/single variable %q is universally visible; the with-clause is redundant", w.Name.Name)
			continue
		}
		if w.Intent == ast.IntentIn {
			// Introduce a task-local copy shadowing the outer variable:
			// every use inside the task binds to the copy, making the
			// accesses safe by construction (paper §I, Task C).
			cp := &Symbol{ID: in.nextSymID, Name: outer.Name, Kind: KindCopy,
				Type: outer.Type, Decl: b, Scope: task, Origin: outer}
			in.nextSymID++
			task.add(cp)
			if copies == nil {
				copies = make(map[*Symbol]*Symbol)
			}
			copies[outer] = cp
		}
		// ref intent: uses keep resolving to the outer symbol through
		// ordinary lexical lookup; nothing to declare.
	}
	if len(copies) > 0 {
		if in.CopyFor == nil {
			in.CopyFor = make(map[*ast.BeginStmt]map[*Symbol]*Symbol)
		}
		in.CopyFor[b] = copies
	}
	in.stmts(task, b.Body.Stmts)
}

func (in *Info) useIdent(sc *Scope, id *ast.Ident) *Symbol {
	sym := sc.Lookup(id.Name)
	if sym == nil {
		in.diags.Addf(in.file, id.Sp, source.Error, "undefined: %s", id.Name)
		return nil
	}
	in.setUse(id, sym)
	return sym
}

// Builtins accepted in call position.
var builtins = map[string]bool{
	"writeln": true,
	"write":   true,
	"assert":  true,
	"sleep":   true, // models a compute delay; no concurrency semantics
}

// IsBuiltin reports whether name is a MiniChapel builtin procedure.
func IsBuiltin(name string) bool { return builtins[name] }

func (in *Info) expr(sc *Scope, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		in.useIdent(sc, x)
	case *ast.BinaryExpr:
		in.expr(sc, x.X)
		in.expr(sc, x.Y)
	case *ast.UnaryExpr:
		in.expr(sc, x.X)
	case *ast.RangeExpr:
		in.expr(sc, x.Lo)
		in.expr(sc, x.Hi)
	case *ast.CallExpr:
		if !IsBuiltin(x.Fun.Name) {
			sym := sc.Lookup(x.Fun.Name)
			if sym == nil || sym.Kind != KindProc {
				in.UnresolvedCalls = append(in.UnresolvedCalls, x.Fun)
				in.diags.Addf(in.file, x.Fun.Sp, source.Error,
					"call to undefined procedure %q", x.Fun.Name)
			} else {
				in.setUse(x.Fun, sym)
			}
		}
		for _, a := range x.Args {
			in.expr(sc, a)
		}
	case *ast.MethodCallExpr:
		recv := in.useIdent(sc, x.Recv)
		for _, a := range x.Args {
			in.expr(sc, a)
		}
		in.classifyMethod(sc, x, recv)
	case *ast.IntLit, *ast.BoolLit, *ast.StringLit:
		// Leaves.
	}
}

func (in *Info) classifyMethod(sc *Scope, call *ast.MethodCallExpr, recv *Symbol) {
	if recv == nil {
		return
	}
	op := OpNone
	switch {
	case recv.Type.Qual == ast.QualSync:
		switch call.Method {
		case "readFE":
			op = OpReadFE
		case "writeEF", "writeXF":
			op = OpWriteEF
		case "reset", "isFull":
			op = OpNone
		default:
			in.diags.Addf(in.file, call.Sp, source.Error,
				"sync variable %s has no method %q", recv.Name, call.Method)
		}
	case recv.Type.Qual == ast.QualSingle:
		switch call.Method {
		case "readFF":
			op = OpReadFF
		case "writeEF":
			op = OpWriteEF
		case "isFull":
			op = OpNone
		default:
			in.diags.Addf(in.file, call.Sp, source.Error,
				"single variable %s has no method %q", recv.Name, call.Method)
		}
	case recv.Type.Qual == ast.QualAtomic:
		switch call.Method {
		case "read":
			op = OpAtomicRead
		case "write", "add", "sub", "fetchAdd", "fetchSub", "compareExchange":
			op = OpAtomicWrite
		case "waitFor":
			// waitFor spins until the atomic holds a value. The default
			// analysis ignores it (§IV-A); the atomics extension models
			// it as a wait-until-full event.
			op = OpAtomicWait
		default:
			in.diags.Addf(in.file, call.Sp, source.Error,
				"atomic variable %s has no method %q", recv.Name, call.Method)
		}
	default:
		in.diags.Addf(in.file, call.Sp, source.Error,
			"%s is not a sync, single or atomic variable; method call %q is invalid",
			recv.Name, call.Method)
	}
	if !in.recording() {
		return
	}
	if in.MethodOps == nil {
		in.MethodOps = make(map[*ast.MethodCallExpr]SyncOpKind)
	}
	in.MethodOps[call] = op
}

// ScopeFor returns the scope opened by node, or nil.
func (in *Info) ScopeFor(node ast.Node) *Scope { return in.ScopeOf[node] }
