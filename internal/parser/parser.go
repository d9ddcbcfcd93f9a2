// Package parser builds MiniChapel ASTs from token streams by recursive
// descent. The grammar is the Chapel subset described in DESIGN.md §3.
//
// Error recovery is statement-level: on a syntax error the parser records
// a diagnostic and skips to the next ';' or '}' so that a corpus run over
// thousands of files keeps going.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"uafcheck/internal/ast"
	"uafcheck/internal/lexer"
	"uafcheck/internal/source"
	"uafcheck/internal/token"
)

// Parse lexes and parses one file. The parser pulls tokens from the
// lexer on demand, so no token slice is built. Diagnostics are appended
// to diags, every lexer error ahead of every parser error; the returned
// module contains whatever was recoverable.
func Parse(file *source.File, diags *source.Diagnostics) *ast.Module {
	n := len(file.Content)
	p := &parser{file: file, lx: *lexer.New(file),
		idents: chunk[ast.Ident]{first: min(n/bytesPerIdent+1, maxFirst)},
		ints:   chunk[ast.IntLit]{first: min(n/bytesPerIntLit+1, maxFirst)}}
	p.tok = p.pull()
	p.next = p.pull()
	m := p.module()
	for _, d := range p.lx.Diags.All() {
		diags.Add(d)
	}
	for _, d := range p.diags.All() {
		diags.Add(d)
	}
	return m
}

// ParseSource is a convenience wrapper for tests and tools: it wraps the
// text in a File named name and parses it.
func ParseSource(name, src string, diags *source.Diagnostics) *ast.Module {
	return Parse(source.NewFile(name, src), diags)
}

type parser struct {
	file *source.File
	lx   lexer.Lexer
	// tok is the current token and next the one after it: the whole
	// lookahead the grammar needs. Comments never enter the window.
	tok, next token.Token
	// pos counts consumed tokens; loops compare it to detect that a
	// malformed construct made no progress.
	pos int
	// diags collects the parser's diagnostics apart from the lexer's,
	// so Parse can report the lexer's first even though the two
	// interleave in time.
	diags source.Diagnostics
	// beginCount assigns stable "TASK A", "TASK B" ... labels in source
	// order, matching the paper's Figure 1 naming.
	beginCount int
	// depth counts statement/expression nesting. Recursive descent turns
	// input nesting into Go stack depth, and stack exhaustion is not a
	// recoverable panic — so nesting past maxNestingDepth is rejected with
	// a diagnostic instead of being followed.
	depth     int
	depthDiag bool
	// idents and ints hand out the two most numerous node types.
	idents chunk[ast.Ident]
	ints   chunk[ast.IntLit]
}

// chunk hands out nodes of one type from slices that belong to one
// parse, so a small file makes one allocation per node type where it
// made one per node. The first slice holds first nodes; if the file
// outruns it, later slices start at chunkMin and double. A slice lives
// as long as the AST holding its nodes.
type chunk[T any] struct {
	first int // length of the first slice
	free  []T // the unused tail of the current slice
	grown int // length of the last slice after the first
	n     int // nodes handed out
}

const chunkMin = 4

func (c *chunk[T]) new() *T {
	if len(c.free) == 0 {
		size := c.first
		if c.n > 0 {
			c.grown = max(2*c.grown, chunkMin)
			size = c.grown
		}
		c.free = make([]T, size)
	}
	x := &c.free[0]
	c.free = c.free[1:]
	c.n++
	return x
}

// The first chunk slices are sized from the file length. Table I
// corpus files run 12-21 source bytes per identifier and about twice
// that per integer literal, so these ratios fit most files' nodes in
// one slice each; maxFirst bounds the guess on long files.
const (
	bytesPerIdent  = 14
	bytesPerIntLit = 28
	maxFirst       = 256
)

func (p *parser) newIdent(name string, sp source.Span) *ast.Ident {
	id := p.idents.new()
	*id = ast.Ident{Name: name, Sp: sp}
	return id
}

func (p *parser) newIntLit(v int64, sp source.Span) *ast.IntLit {
	lit := p.ints.new()
	*lit = ast.IntLit{Value: v, Sp: sp}
	return lit
}

// maxNestingDepth bounds statement/expression nesting. Real MiniChapel
// programs nest a handful of levels; the limit only exists so adversarial
// input (one megabyte of '(' or '{') cannot exhaust the goroutine stack.
const maxNestingDepth = 256

// tooDeep reports (once) and returns true when the nesting budget is
// spent; callers must then consume input without recursing.
func (p *parser) tooDeep() bool {
	if p.depth < maxNestingDepth {
		return false
	}
	if !p.depthDiag {
		p.depthDiag = true
		p.errorf(p.cur(), "construct nests deeper than %d levels", maxNestingDepth)
	}
	return true
}

// pull reads the next non-comment token from the lexer. Past the end
// the lexer keeps returning EOF, so the window stays filled.
func (p *parser) pull() token.Token {
	for {
		if t := p.lx.Next(); t.Kind != token.Comment {
			return t
		}
	}
}

func (p *parser) cur() token.Token  { return p.tok }
func (p *parser) peek() token.Token { return p.next }

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) advance() token.Token {
	t := p.tok
	if t.Kind != token.EOF {
		p.pos++
		p.tok = p.next
		p.next = p.pull()
	}
	return t
}

func (p *parser) span(t token.Token) source.Span {
	return source.Span{Start: source.Pos(t.Span.Start), End: source.Pos(t.Span.End)}
}

func (p *parser) errorf(t token.Token, format string, args ...any) {
	p.diags.Addf(p.file, p.span(t), source.Error, format, args...)
}

// expect consumes a token of kind k or reports an error and returns the
// current token without consuming it.
func (p *parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.advance()
	}
	p.errorf(p.cur(), "expected %q, found %s", k.String(), p.cur())
	return p.cur()
}

// sync skips tokens until just after a ';' or until a '}' / EOF, for
// statement-level error recovery.
func (p *parser) syncStmt() {
	for {
		switch p.cur().Kind {
		case token.Semicolon:
			p.advance()
			return
		case token.RBrace, token.EOF:
			return
		}
		p.advance()
	}
}

// ---------------------------------------------------------------- module

func (p *parser) module() *ast.Module {
	m := &ast.Module{File: p.file}
	for !p.at(token.EOF) {
		switch p.cur().Kind {
		case token.KwProc:
			m.Procs = append(m.Procs, p.procDecl())
		case token.KwConfig, token.KwVar, token.KwConst:
			m.Configs = append(m.Configs, p.varDecl())
		default:
			p.errorf(p.cur(), "expected top-level proc or config declaration, found %s", p.cur())
			before := p.pos
			p.syncStmt()
			if p.pos == before {
				// syncStmt stops at '}' without consuming; at top level
				// that would loop forever.
				p.advance()
			}
		}
	}
	m.Idents = p.idents.n
	m.Begins = p.beginCount
	return m
}

func (p *parser) procDecl() *ast.ProcDecl {
	start := p.expect(token.KwProc)
	name := p.ident()
	p.expect(token.LParen)
	var params []ast.Param
	for !p.at(token.RParen) && !p.at(token.EOF) {
		before := p.pos
		if len(params) > 0 {
			p.expect(token.Comma)
		}
		byRef := false
		if p.at(token.KwRef) {
			p.advance()
			byRef = true
		} else if p.at(token.KwIn) {
			// `in` intent on a formal: by-value, our default.
			p.advance()
		}
		pn := p.ident()
		p.expect(token.Colon)
		pt := p.parseType()
		params = append(params, ast.Param{ByRef: byRef, Name: pn, Type: pt})
		if p.pos == before {
			// No progress on malformed input: bail out of the list.
			break
		}
	}
	p.expect(token.RParen)
	ret := ast.Type{Kind: ast.TypeVoid}
	if p.at(token.Colon) {
		p.advance()
		ret = p.parseType()
	}
	body := p.block()
	return &ast.ProcDecl{
		Name: name, Params: params, Ret: ret, Body: body,
		Sp: p.span(start).Cover(body.Span()),
	}
}

func (p *parser) parseType() ast.Type {
	t := ast.Type{}
	switch p.cur().Kind {
	case token.KwSync:
		p.advance()
		t.Qual = ast.QualSync
	case token.KwSingle:
		p.advance()
		t.Qual = ast.QualSingle
	case token.KwAtomic:
		p.advance()
		t.Qual = ast.QualAtomic
	}
	switch p.cur().Kind {
	case token.KwInt:
		p.advance()
		t.Kind = ast.TypeInt
	case token.KwBool:
		p.advance()
		t.Kind = ast.TypeBool
	case token.KwString:
		p.advance()
		t.Kind = ast.TypeString
	case token.KwVoid:
		p.advance()
		t.Kind = ast.TypeVoid
	default:
		p.errorf(p.cur(), "expected type, found %s", p.cur())
	}
	return t
}

func (p *parser) ident() *ast.Ident {
	t := p.cur()
	if t.Kind != token.Ident {
		p.errorf(t, "expected identifier, found %s", t)
		return p.newIdent("_err_", p.span(t))
	}
	p.advance()
	return p.newIdent(t.Lit, p.span(t))
}

func (p *parser) block() *ast.BlockStmt {
	lb := p.expect(token.LBrace)
	b := &ast.BlockStmt{}
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		s := p.stmt()
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
	}
	rb := p.expect(token.RBrace)
	b.Sp = p.span(lb).Cover(p.span(rb))
	return b
}

// ---------------------------------------------------------------- stmts

func (p *parser) stmt() ast.Stmt {
	if p.tooDeep() {
		p.advance()
		p.syncStmt()
		return nil
	}
	p.depth++
	defer func() { p.depth-- }()
	switch p.cur().Kind {
	case token.KwConfig, token.KwVar, token.KwConst:
		return p.varDecl()
	case token.KwBegin:
		return p.beginStmt()
	case token.KwSync:
		// Disambiguate `sync { ... }` block from a `sync bool` type in a
		// declaration: a sync block is followed by '{'.
		if p.peek().Kind == token.LBrace {
			return p.syncBlock()
		}
		p.errorf(p.cur(), "unexpected 'sync' (did you mean 'sync { ... }' or 'var x: sync T')")
		p.syncStmt()
		return nil
	case token.KwIf:
		return p.ifStmt()
	case token.KwWhile:
		return p.whileStmt()
	case token.KwFor:
		return p.forStmt()
	case token.KwReturn:
		return p.returnStmt()
	case token.KwProc:
		d := p.procDecl()
		return &ast.ProcStmt{Proc: d, Sp: d.Sp}
	case token.LBrace:
		return p.block()
	case token.Ident:
		return p.simpleStmt()
	case token.Semicolon:
		p.advance() // empty statement
		return nil
	default:
		p.errorf(p.cur(), "unexpected token %s at start of statement", p.cur())
		p.syncStmt()
		return nil
	}
}

func (p *parser) varDecl() *ast.VarDecl {
	start := p.cur()
	config := false
	if p.at(token.KwConfig) {
		p.advance()
		config = true
	}
	isConst := false
	switch p.cur().Kind {
	case token.KwVar:
		p.advance()
	case token.KwConst:
		p.advance()
		isConst = true
	default:
		p.errorf(p.cur(), "expected 'var' or 'const', found %s", p.cur())
	}
	name := p.ident()
	typ := ast.Type{Kind: ast.TypeInt}
	typed := false
	if p.at(token.Colon) {
		p.advance()
		typ = p.parseType()
		typed = true
	}
	var init ast.Expr
	if p.at(token.Assign) {
		p.advance()
		init = p.expr()
	}
	if !typed && init == nil {
		p.errorf(start, "variable %s needs a type or an initializer", name.Name)
	}
	if !typed && init != nil {
		typ = inferType(init)
	}
	// Enforce the $-suffix naming convention the paper leans on (§II):
	// it is a warning-grade style issue, not an error.
	isSyncName := strings.HasSuffix(name.Name, "$")
	isSyncType := typ.Qual == ast.QualSync || typ.Qual == ast.QualSingle
	if isSyncType && !isSyncName {
		p.diags.Addf(p.file, name.Sp, source.Note,
			"sync/single variable %q should carry the conventional $ suffix", name.Name)
	}
	if !isSyncType && isSyncName {
		p.diags.Addf(p.file, name.Sp, source.Note,
			"variable %q has a $ suffix but is not declared sync/single", name.Name)
	}
	end := p.expect(token.Semicolon)
	return &ast.VarDecl{
		Config: config, Const: isConst, Name: name, Type: typ, Init: init,
		Sp: p.span(start).Cover(p.span(end)),
	}
}

func inferType(e ast.Expr) ast.Type {
	switch e.(type) {
	case *ast.BoolLit:
		return ast.Type{Kind: ast.TypeBool}
	case *ast.StringLit:
		return ast.Type{Kind: ast.TypeString}
	default:
		return ast.Type{Kind: ast.TypeInt}
	}
}

func (p *parser) beginStmt() *ast.BeginStmt {
	start := p.expect(token.KwBegin)
	var with []ast.WithClause
	if p.at(token.KwWith) {
		p.advance()
		p.expect(token.LParen)
		for !p.at(token.RParen) && !p.at(token.EOF) {
			before := p.pos
			if len(with) > 0 {
				p.expect(token.Comma)
			}
			intent := ast.IntentRef
			switch p.cur().Kind {
			case token.KwRef:
				p.advance()
			case token.KwIn:
				p.advance()
				intent = ast.IntentIn
			default:
				p.errorf(p.cur(), "expected 'ref' or 'in' intent, found %s", p.cur())
			}
			with = append(with, ast.WithClause{Intent: intent, Name: p.ident()})
			if p.pos == before {
				break
			}
		}
		p.expect(token.RParen)
	}
	label := fmt.Sprintf("TASK %s", taskLetters(p.beginCount))
	p.beginCount++
	body := p.block()
	return &ast.BeginStmt{
		With: with, Body: body, Label: label,
		Sp: p.span(start).Cover(body.Span()),
	}
}

// TaskLabel renders the display label of the i-th begin task of a file
// (0-based): "TASK A", "TASK B", ..., "TASK Z", "TASK AA", ... Labels
// are assigned in file source order across all procedures, so a
// procedure's labels depend on how many begins precede it — the
// incremental engine re-derives them via TaskLabel/TaskIndex instead of
// fingerprinting that prefix.
func TaskLabel(i int) string { return "TASK " + taskLetters(i) }

// TaskIndex inverts TaskLabel, returning the 0-based file-wide begin
// index of a label, or -1 when the string is not a task label.
func TaskIndex(label string) int {
	const prefix = "TASK "
	if len(label) <= len(prefix) || label[:len(prefix)] != prefix {
		return -1
	}
	i := 0
	for _, r := range label[len(prefix):] {
		if r < 'A' || r > 'Z' {
			return -1
		}
		i = i*26 + int(r-'A') + 1
	}
	return i - 1
}

// taskLetters yields A, B, ..., Z, AA, AB, ... for task labels.
func taskLetters(i int) string {
	s := ""
	for {
		s = string(rune('A'+i%26)) + s
		i = i/26 - 1
		if i < 0 {
			return s
		}
	}
}

func (p *parser) syncBlock() *ast.SyncStmt {
	start := p.expect(token.KwSync)
	body := p.block()
	return &ast.SyncStmt{Body: body, Sp: p.span(start).Cover(body.Span())}
}

func (p *parser) ifStmt() *ast.IfStmt {
	start := p.expect(token.KwIf)
	// The else-if chain recurses directly (not through stmt), so it needs
	// its own rung on the nesting budget.
	if p.tooDeep() {
		p.syncStmt()
		sp := p.span(start)
		return &ast.IfStmt{Cond: &ast.BoolLit{Sp: sp}, Then: &ast.BlockStmt{Sp: sp}, Sp: sp}
	}
	p.depth++
	defer func() { p.depth-- }()
	p.expect(token.LParen)
	cond := p.expr()
	p.expect(token.RParen)
	then := p.block()
	var els *ast.BlockStmt
	sp := p.span(start).Cover(then.Span())
	if p.at(token.KwElse) {
		p.advance()
		if p.at(token.KwIf) {
			inner := p.ifStmt()
			els = &ast.BlockStmt{Stmts: []ast.Stmt{inner}, Sp: inner.Sp}
		} else {
			els = p.block()
		}
		sp = sp.Cover(els.Span())
	}
	return &ast.IfStmt{Cond: cond, Then: then, Else: els, Sp: sp}
}

func (p *parser) whileStmt() *ast.WhileStmt {
	start := p.expect(token.KwWhile)
	p.expect(token.LParen)
	cond := p.expr()
	p.expect(token.RParen)
	body := p.block()
	return &ast.WhileStmt{Cond: cond, Body: body, Sp: p.span(start).Cover(body.Span())}
}

func (p *parser) forStmt() *ast.ForStmt {
	start := p.expect(token.KwFor)
	v := p.ident()
	p.expect(token.KwIn)
	lo := p.expr()
	rng, ok := lo.(*ast.RangeExpr)
	if !ok {
		p.errorf(p.cur(), "for loop requires a range lo..hi")
		rng = &ast.RangeExpr{Lo: lo, Hi: lo, Sp: lo.Span()}
	}
	body := p.block()
	return &ast.ForStmt{Var: v, Range: rng, Body: body, Sp: p.span(start).Cover(body.Span())}
}

func (p *parser) returnStmt() *ast.ReturnStmt {
	start := p.expect(token.KwReturn)
	var val ast.Expr
	if !p.at(token.Semicolon) {
		val = p.expr()
	}
	end := p.expect(token.Semicolon)
	return &ast.ReturnStmt{Value: val, Sp: p.span(start).Cover(p.span(end))}
}

// simpleStmt parses statements that begin with an identifier:
// assignment, inc/dec, bare sync read (`done$;`), calls, method calls.
func (p *parser) simpleStmt() ast.Stmt {
	start := p.cur()
	switch p.peek().Kind {
	case token.Assign, token.PlusEq, token.MinusEq, token.TimesEq:
		lhs := p.ident()
		op := p.advance().Lit
		if op == "" {
			op = "="
		}
		rhs := p.expr()
		end := p.expect(token.Semicolon)
		return &ast.AssignStmt{Lhs: lhs, Op: opSpelling(op), Rhs: rhs,
			Sp: p.span(start).Cover(p.span(end))}
	case token.PlusPlus, token.MinusMinus:
		x := p.ident()
		op := p.advance()
		end := p.expect(token.Semicolon)
		return &ast.IncDecStmt{X: x, Op: op.Kind.String(),
			Sp: p.span(start).Cover(p.span(end))}
	}
	// Calls, method calls, and bare expressions (notably `done$;`).
	e := p.expr()
	end := p.expect(token.Semicolon)
	sp := p.span(start).Cover(p.span(end))
	switch e.(type) {
	case *ast.CallExpr, *ast.MethodCallExpr:
		return &ast.CallStmt{X: e, Sp: sp}
	default:
		return &ast.ExprStmt{X: e, Sp: sp}
	}
}

func opSpelling(op string) string {
	switch op {
	case "=", "+=", "-=", "*=":
		return op
	default:
		return "="
	}
}

// ---------------------------------------------------------------- exprs

func (p *parser) expr() ast.Expr {
	if p.tooDeep() {
		t := p.advance()
		return p.newIntLit(0, p.span(t))
	}
	p.depth++
	defer func() { p.depth-- }()
	return p.binExpr(1)
}

func (p *parser) binExpr(minPrec int) ast.Expr {
	lhs := p.unary()
	for {
		k := p.cur().Kind
		prec := k.Precedence()
		if prec < minPrec || prec == 0 {
			return lhs
		}
		op := p.advance()
		rhs := p.binExpr(prec + 1)
		if k == token.DotDot {
			lhs = &ast.RangeExpr{Lo: lhs, Hi: rhs, Sp: lhs.Span().Cover(rhs.Span())}
		} else {
			lhs = &ast.BinaryExpr{Op: op.Kind.String(), X: lhs, Y: rhs,
				Sp: lhs.Span().Cover(rhs.Span())}
		}
	}
}

func (p *parser) unary() ast.Expr {
	switch p.cur().Kind {
	case token.Not, token.Minus:
		op := p.advance()
		// Operator chains (`----x`) recurse one frame per operator; they
		// share the nesting budget with parenthesized expressions.
		if p.tooDeep() {
			return p.newIntLit(0, p.span(op))
		}
		p.depth++
		x := p.unary()
		p.depth--
		return &ast.UnaryExpr{Op: op.Kind.String(), X: x, Sp: p.span(op).Cover(x.Span())}
	}
	return p.postfix()
}

func (p *parser) postfix() ast.Expr {
	e := p.primary()
	for {
		switch p.cur().Kind {
		case token.Dot:
			p.advance()
			recv, ok := e.(*ast.Ident)
			if !ok {
				p.errorf(p.cur(), "method call receiver must be a variable")
				recv = p.newIdent("_err_", e.Span())
			}
			method := p.ident()
			args, sp := p.callArgs()
			e = &ast.MethodCallExpr{Recv: recv, Method: method.Name, Args: args,
				Sp: e.Span().Cover(sp)}
		case token.LParen:
			fun, ok := e.(*ast.Ident)
			if !ok {
				p.errorf(p.cur(), "call target must be a procedure name")
				return e
			}
			args, sp := p.callArgs()
			e = &ast.CallExpr{Fun: fun, Args: args, Sp: e.Span().Cover(sp)}
		default:
			return e
		}
	}
}

func (p *parser) callArgs() ([]ast.Expr, source.Span) {
	lp := p.expect(token.LParen)
	var args []ast.Expr
	for !p.at(token.RParen) && !p.at(token.EOF) {
		before := p.pos
		if len(args) > 0 {
			p.expect(token.Comma)
		}
		args = append(args, p.expr())
		if p.pos == before {
			break
		}
	}
	rp := p.expect(token.RParen)
	return args, p.span(lp).Cover(p.span(rp))
}

func (p *parser) primary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.Ident:
		p.advance()
		return p.newIdent(t.Lit, p.span(t))
	case token.IntLit:
		p.advance()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errorf(t, "invalid integer literal %q", t.Lit)
		}
		return p.newIntLit(v, p.span(t))
	case token.BoolLit:
		p.advance()
		return &ast.BoolLit{Value: t.Lit == "true", Sp: p.span(t)}
	case token.StringLit:
		p.advance()
		return &ast.StringLit{Value: unquote(t.Lit), Sp: p.span(t)}
	case token.LParen:
		p.advance()
		e := p.expr()
		p.expect(token.RParen)
		return e
	default:
		p.errorf(t, "expected expression, found %s", t)
		p.advance()
		return p.newIntLit(0, p.span(t))
	}
}

func unquote(lit string) string {
	if len(lit) >= 2 && lit[0] == '"' {
		lit = lit[1:]
		if lit[len(lit)-1] == '"' {
			lit = lit[:len(lit)-1]
		}
	}
	var b strings.Builder
	for i := 0; i < len(lit); i++ {
		if lit[i] == '\\' && i+1 < len(lit) {
			i++
			switch lit[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteByte(lit[i])
			}
			continue
		}
		b.WriteByte(lit[i])
	}
	return b.String()
}
