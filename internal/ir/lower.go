package ir

import (
	"fmt"

	"uafcheck/internal/ast"
	"uafcheck/internal/source"
	"uafcheck/internal/sym"
)

// LowerOptions carries the optional module-level call-boundary effects.
type LowerOptions struct {
	// Effects, when non-nil, supplies per-procedure summaries for
	// module-level (non-nested) callees: the returned slice is indexed
	// by parameter position. Lowering splices the callee's boundary
	// effects on by-ref actuals right after the opaque Call, so sync
	// enclosure, loop subsumption and task scoping apply to them
	// exactly as to local code. A nil func or nil return keeps the
	// call fully opaque (single-file behavior).
	Effects func(callee *ast.ProcDecl) []ParamEffects
}

// Lower produces the IR Program for one root procedure, with calls to
// module-level procedures left opaque.
func Lower(info *sym.Info, proc *ast.ProcDecl, diags *source.Diagnostics) *Program {
	return LowerWith(info, proc, diags, LowerOptions{})
}

// LowerWith is Lower with explicit options. Nested procedures are
// inlined at every call site, and a nested-call cycle stops at the
// recursion cutoff (§III-A), which sets Program.Truncated.
func LowerWith(info *sym.Info, proc *ast.ProcDecl, diags *source.Diagnostics, opt LowerOptions) *Program {
	lw := &lowerer{info: info, diags: diags, file: info.Module.File, opts: opt}
	p := &Program{Proc: proc, Info: info}
	scope := info.ScopeFor(proc)
	root := &Block{Scope: scope}
	for _, prm := range proc.Params {
		s := info.Uses[prm.Name]
		if s == nil {
			continue
		}
		root.Instrs = append(root.Instrs, &Decl{Sym: s, Sp: prm.Name.Sp})
		if s.ByRef {
			p.RefParams = append(p.RefParams, s)
		}
	}
	lw.stmts(root, proc.Body.Stmts)
	p.Root = root
	end := proc.Body.Span().End
	p.EndSpan = source.Span{Start: end - 1, End: end}
	p.Truncated = lw.truncated
	return p
}

type lowerer struct {
	info  *sym.Info
	diags *source.Diagnostics
	file  *source.File
	opts  LowerOptions
	// subst maps by-ref formals of inlined procedures to the actual
	// argument variables at the active call site.
	subst map[*sym.Symbol]*sym.Symbol
	// inlining is the call stack used for recursion detection (§III-A).
	inlining []*ast.ProcDecl
	// truncated is set when the recursion cutoff fires.
	truncated bool
}

func (lw *lowerer) note(sp source.Span, format string, args ...any) {
	lw.diags.Addf(lw.file, sp, source.Note, format, args...)
}

// resolve follows the substitution chain for inlined ref formals.
func (lw *lowerer) resolve(s *sym.Symbol) *sym.Symbol {
	for s != nil {
		t, ok := lw.subst[s]
		if !ok {
			return s
		}
		s = t
	}
	return s
}

func (lw *lowerer) stmts(b *Block, list []ast.Stmt) {
	for _, s := range list {
		lw.stmt(b, s)
	}
}

func (lw *lowerer) stmt(b *Block, s ast.Stmt) {
	switch x := s.(type) {
	case *ast.VarDecl:
		if x.Init != nil {
			lw.expr(b, x.Init)
		}
		if sm := lw.info.Uses[x.Name]; sm != nil {
			b.Instrs = append(b.Instrs, &Decl{Sym: sm, Sp: x.Name.Sp})
		}
	case *ast.AssignStmt:
		lw.assign(b, x)
	case *ast.IncDecStmt:
		sm := lw.info.Uses[x.X]
		if sm == nil {
			return
		}
		sm = lw.resolve(sm)
		if sm.IsSyncVar() || sm.IsAtomic() {
			lw.note(x.Sp, "%s on %s variable %s is not modelled", x.Op, sm.Type.Qual, sm.Name)
			return
		}
		// x++ reads then writes the location.
		b.Instrs = append(b.Instrs,
			&Access{Sym: sm, Write: false, Sp: x.X.Sp},
			&Access{Sym: sm, Write: true, Sp: x.X.Sp})
	case *ast.ExprStmt:
		lw.expr(b, x.X)
	case *ast.CallStmt:
		lw.expr(b, x.X)
	case *ast.BeginStmt:
		lw.begin(b, x)
	case *ast.SyncStmt:
		inner := &Block{Scope: lw.info.ScopeFor(x)}
		lw.stmts(inner, x.Body.Stmts)
		b.Instrs = append(b.Instrs, &SyncRegion{Body: inner, Sp: x.Sp})
	case *ast.IfStmt:
		lw.expr(b, x.Cond)
		then := &Block{Scope: lw.info.ScopeFor(x.Then)}
		lw.stmts(then, x.Then.Stmts)
		var els *Block
		if x.Else != nil {
			els = &Block{Scope: lw.info.ScopeFor(x.Else)}
			lw.stmts(els, x.Else.Stmts)
		}
		b.Instrs = append(b.Instrs, &If{Then: then, Else: els, Sp: x.Sp})
	case *ast.WhileStmt:
		lw.expr(b, x.Cond)
		lw.loop(b, lw.info.ScopeFor(x), x.Body.Stmts, x.Sp)
	case *ast.ForStmt:
		lw.expr(b, x.Range.Lo)
		lw.expr(b, x.Range.Hi)
		scope := lw.info.ScopeFor(x)
		body := []ast.Stmt(x.Body.Stmts)
		lw.loopWithVar(b, scope, lw.info.Uses[x.Var], body, x.Sp)
	case *ast.ReturnStmt:
		if x.Value != nil {
			lw.expr(b, x.Value)
		}
		b.Instrs = append(b.Instrs, &Return{Sp: x.Sp})
	case *ast.BlockStmt:
		inner := &Block{Scope: lw.info.ScopeFor(x)}
		lw.stmts(inner, x.Stmts)
		b.Instrs = append(b.Instrs, &Region{Body: inner, Sp: x.Sp})
	case *ast.ProcStmt:
		// Nested procedure definitions generate no code; bodies are
		// inlined at call sites.
	}
}

func (lw *lowerer) loop(b *Block, scope *sym.Scope, body []ast.Stmt, sp source.Span) {
	lw.loopWithVar(b, scope, nil, body, sp)
}

func (lw *lowerer) loopWithVar(b *Block, scope *sym.Scope, loopVar *sym.Symbol, body []ast.Stmt, sp source.Span) {
	inner := &Block{Scope: scope}
	if loopVar != nil {
		inner.Instrs = append(inner.Instrs, &Decl{Sym: loopVar, Sp: sp})
	}
	lw.stmts(inner, body)
	if blockHasConcurrency(inner) {
		// §IV-A: loops containing a sync node or a begin task edge are
		// not supported; the loop is subsumed into a single node that
		// retains only the variable accesses.
		lw.note(sp, "loop body contains sync operations or begin tasks; "+
			"the analysis subsumes the loop into a single node (paper §IV-A)")
		flat := &Block{Scope: scope}
		flattenAccesses(inner, flat)
		b.Instrs = append(b.Instrs, &Loop{Body: flat, Subsumed: true, Sp: sp})
		return
	}
	// A loop with only variable accesses is treated as a single node when
	// no synchronization event separates first and last iteration — which
	// is guaranteed here since the body has no sync events at all.
	b.Instrs = append(b.Instrs, &Loop{Body: inner, Subsumed: false, Sp: sp})
}

// blockHasConcurrency reports whether the block (recursively) contains
// sync ops, atomic ops, begins or sync regions.
func blockHasConcurrency(b *Block) bool {
	for _, in := range b.Instrs {
		switch x := in.(type) {
		case *SyncOp, *AtomicOp, *Begin, *SyncRegion:
			return true
		case *If:
			if blockHasConcurrency(x.Then) {
				return true
			}
			if x.Else != nil && blockHasConcurrency(x.Else) {
				return true
			}
		case *Loop:
			if blockHasConcurrency(x.Body) {
				return true
			}
		case *Region:
			if blockHasConcurrency(x.Body) {
				return true
			}
		}
	}
	return false
}

// flattenAccesses copies every Access and Decl from src (recursively,
// ignoring control structure) into dst, preserving order.
func flattenAccesses(src *Block, dst *Block) {
	for _, in := range src.Instrs {
		switch x := in.(type) {
		case *Access:
			dst.Instrs = append(dst.Instrs, x)
		case *Decl:
			dst.Instrs = append(dst.Instrs, x)
		case *If:
			flattenAccesses(x.Then, dst)
			if x.Else != nil {
				flattenAccesses(x.Else, dst)
			}
		case *Loop:
			flattenAccesses(x.Body, dst)
		case *Begin:
			flattenAccesses(x.Body, dst)
		case *SyncRegion:
			flattenAccesses(x.Body, dst)
		case *Region:
			flattenAccesses(x.Body, dst)
		}
	}
}

func (lw *lowerer) assign(b *Block, x *ast.AssignStmt) {
	lhs := lw.info.Uses[x.Lhs]
	if lhs == nil {
		lw.expr(b, x.Rhs)
		return
	}
	lhs = lw.resolve(lhs)
	// Compound assignment reads the left side first.
	if x.Op != "=" && !lhs.IsSyncVar() && !lhs.IsAtomic() {
		b.Instrs = append(b.Instrs, &Access{Sym: lhs, Write: false, Sp: x.Lhs.Sp})
	}
	lw.expr(b, x.Rhs)
	switch {
	case lhs.IsSyncVar():
		// `done$ = v` is the Chapel sugar for done$.writeEF(v).
		b.Instrs = append(b.Instrs, &SyncOp{Sym: lhs, Op: sym.OpWriteEF, Sp: x.Sp})
	case lhs.IsAtomic():
		a := &AtomicOp{Sym: lhs, Op: sym.OpAtomicWrite, Method: "write", Sp: x.Sp}
		if lit, ok := x.Rhs.(*ast.IntLit); ok {
			a.Arg, a.HasArg = lit.Value, true
		}
		b.Instrs = append(b.Instrs, a)
	default:
		b.Instrs = append(b.Instrs, &Access{Sym: lhs, Write: true, Sp: x.Lhs.Sp})
	}
}

func (lw *lowerer) begin(b *Block, x *ast.BeginStmt) {
	body := &Block{Scope: lw.info.ScopeFor(x)}
	// `in`-intent copies: the copy is initialized from the outer variable
	// at task-creation time, in the PARENT's context — that read is an
	// ordinary (safe) parent access, then the copy becomes task-local.
	for _, w := range x.With {
		outer := lw.info.Uses[w.Name]
		if outer == nil || outer.IsSyncVar() {
			continue
		}
		if w.Intent == ast.IntentIn {
			outer = lw.resolve(outer)
			b.Instrs = append(b.Instrs, &Access{Sym: outer, Write: false, Sp: w.Name.Sp})
			if cp := lw.info.CopyFor[x][lw.info.Uses[w.Name]]; cp != nil {
				body.Instrs = append(body.Instrs, &Decl{Sym: cp, Sp: w.Name.Sp})
			}
		}
	}
	lw.stmts(body, x.Body.Stmts)
	b.Instrs = append(b.Instrs, &Begin{Label: x.Label, Body: body, Stmt: x, Sp: x.Sp})
}

// ---------------------------------------------------------------- exprs

func (lw *lowerer) expr(b *Block, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		sm := lw.info.Uses[x]
		if sm == nil {
			return
		}
		sm = lw.resolve(sm)
		switch {
		case sm.Kind == sym.KindProc:
			// Bare proc reference: no access.
		case sm.Type.Qual == ast.QualSync:
			// Bare read of a sync variable: blocking readFE.
			b.Instrs = append(b.Instrs, &SyncOp{Sym: sm, Op: sym.OpReadFE, Sp: x.Sp})
		case sm.Type.Qual == ast.QualSingle:
			// Bare read of a single variable: blocking readFF.
			b.Instrs = append(b.Instrs, &SyncOp{Sym: sm, Op: sym.OpReadFF, Sp: x.Sp})
		case sm.IsAtomic():
			b.Instrs = append(b.Instrs, &AtomicOp{Sym: sm, Op: sym.OpAtomicRead, Sp: x.Sp})
		case sm.Kind == sym.KindConfig:
			// Config constants have program lifetime: never a hazard.
		default:
			b.Instrs = append(b.Instrs, &Access{Sym: sm, Write: false, Sp: x.Sp})
		}
	case *ast.BinaryExpr:
		lw.expr(b, x.X)
		lw.expr(b, x.Y)
	case *ast.UnaryExpr:
		lw.expr(b, x.X)
	case *ast.RangeExpr:
		lw.expr(b, x.Lo)
		lw.expr(b, x.Hi)
	case *ast.CallExpr:
		lw.call(b, x)
	case *ast.MethodCallExpr:
		for _, a := range x.Args {
			lw.expr(b, a)
		}
		recv := lw.info.Uses[x.Recv]
		if recv == nil {
			return
		}
		recv = lw.resolve(recv)
		op := lw.info.MethodOps[x]
		switch op {
		case sym.OpReadFE, sym.OpReadFF, sym.OpWriteEF:
			b.Instrs = append(b.Instrs, &SyncOp{Sym: recv, Op: op, Sp: x.Sp})
		case sym.OpAtomicRead, sym.OpAtomicWrite, sym.OpAtomicWait:
			a := &AtomicOp{Sym: recv, Op: op, Method: x.Method, Sp: x.Sp}
			if len(x.Args) > 0 {
				if lit, ok := x.Args[0].(*ast.IntLit); ok {
					a.Arg, a.HasArg = lit.Value, true
				}
			}
			b.Instrs = append(b.Instrs, a)
		}
	case *ast.IntLit, *ast.BoolLit, *ast.StringLit:
		// Leaves.
	}
}

func (lw *lowerer) call(b *Block, x *ast.CallExpr) {
	// Builtins: evaluate arguments only.
	if sym.IsBuiltin(x.Fun.Name) {
		for _, a := range x.Args {
			lw.expr(b, a)
		}
		return
	}
	callee := lw.info.Uses[x.Fun]
	if callee == nil || callee.Proc == nil {
		for _, a := range x.Args {
			lw.expr(b, a)
		}
		return
	}
	proc := callee.Proc
	nested := callee.Scope.Kind != sym.ScopeModule
	if !nested {
		// Partial inter-procedural analysis (§III): calls to non-nested
		// procedures are opaque — except that module-mode lowering
		// splices the callee's summarized boundary effects in right
		// after the call.
		for _, a := range x.Args {
			lw.expr(b, a)
		}
		c := &Call{Callee: proc.Name.Name, CalleeSym: callee, Sp: x.Sp}
		for i, prm := range proc.Params {
			if !prm.ByRef || i >= len(x.Args) {
				continue
			}
			if id, ok := x.Args[i].(*ast.Ident); ok {
				if actual := lw.info.Uses[id]; actual != nil {
					c.RefArgs = append(c.RefArgs, RefArg{Index: i, Sym: lw.resolve(actual)})
				}
			}
		}
		b.Instrs = append(b.Instrs, c)
		lw.spliceEffects(b, c, proc)
		return
	}
	// Recursion cutoff (§III-A): stop inlining on a cycle.
	for _, active := range lw.inlining {
		if active == proc {
			lw.note(x.Sp, "recursive nested procedure %q: inlining stopped (paper §III-A)", proc.Name.Name)
			lw.truncated = true
			for _, a := range x.Args {
				lw.expr(b, a)
			}
			return
		}
	}
	lw.inline(b, proc, x)
}

// spliceEffects applies the callee's summary at an opaque call
// boundary: direct effects become ordinary caller-task accesses, and
// escaping effects are wrapped in a synthetic fire-and-forget task so
// the CCFG scopes them like any local begin (sync enclosure, loop
// subsumption and task lifetimes all apply unchanged).
func (lw *lowerer) spliceEffects(b *Block, c *Call, proc *ast.ProcDecl) {
	if lw.opts.Effects == nil || len(c.RefArgs) == 0 {
		return
	}
	effects := lw.opts.Effects(proc)
	if effects == nil {
		return
	}
	var escBody *Block
	for _, ra := range c.RefArgs {
		if ra.Index >= len(effects) {
			continue
		}
		e := effects[ra.Index]
		if e.DirectRead {
			b.Instrs = append(b.Instrs, &Access{Sym: ra.Sym, Write: false, Sp: c.Sp})
		}
		if e.DirectWrite {
			b.Instrs = append(b.Instrs, &Access{Sym: ra.Sym, Write: true, Sp: c.Sp})
		}
		if e.EscRead || e.EscWrite {
			if escBody == nil {
				escBody = &Block{Scope: b.Scope}
			}
			if e.EscRead {
				escBody.Instrs = append(escBody.Instrs, &Access{Sym: ra.Sym, Write: false, Sp: c.Sp})
			}
			if e.EscWrite {
				escBody.Instrs = append(escBody.Instrs, &Access{Sym: ra.Sym, Write: true, Sp: c.Sp})
			}
		}
	}
	if escBody != nil {
		b.Instrs = append(b.Instrs, &Begin{
			Label: fmt.Sprintf("tasks escaping %s()", proc.Name.Name),
			Body:  escBody,
			Sp:    c.Sp,
		})
	}
}

// inline copies the nested procedure's lowered body at the call site
// (§III-A: "we copy the entire sub-graph of the embedded function at all
// call sites to maintain the context sensitivity").
func (lw *lowerer) inline(b *Block, proc *ast.ProcDecl, call *ast.CallExpr) {
	if len(call.Args) != len(proc.Params) {
		lw.note(call.Sp, "call to %q passes %d arguments for %d parameters",
			proc.Name.Name, len(call.Args), len(proc.Params))
	}
	savedSubst := lw.subst
	newSubst := make(map[*sym.Symbol]*sym.Symbol, len(savedSubst)+len(proc.Params))
	for k, v := range savedSubst {
		newSubst[k] = v
	}
	inlineBlock := &Block{Scope: lw.info.ScopeFor(proc)}
	for i, prm := range proc.Params {
		formal := lw.info.Uses[prm.Name]
		if formal == nil || i >= len(call.Args) {
			continue
		}
		arg := call.Args[i]
		if prm.ByRef {
			// A by-ref formal aliases the actual variable: substitute so
			// accesses inside the body target the caller's symbol.
			if id, ok := arg.(*ast.Ident); ok {
				if actual := lw.info.Uses[id]; actual != nil {
					newSubst[formal] = lw.resolve(actual)
					continue
				}
			}
			lw.note(arg.Span(), "by-ref argument to %q is not a variable; treated by value", proc.Name.Name)
		}
		// By-value formal: evaluate the argument in the caller, then the
		// formal becomes a local of the inlined region.
		lw.expr(b, arg)
		inlineBlock.Instrs = append(inlineBlock.Instrs, &Decl{Sym: formal, Sp: prm.Name.Sp})
	}
	lw.subst = newSubst
	lw.inlining = append(lw.inlining, proc)
	lw.stmts(inlineBlock, proc.Body.Stmts)
	lw.inlining = lw.inlining[:len(lw.inlining)-1]
	lw.subst = savedSubst
	// Splice the inlined body as a control-transparent region.
	b.Instrs = append(b.Instrs, &Region{Body: inlineBlock, Sp: call.Sp})
}
