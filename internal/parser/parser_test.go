package parser

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"uafcheck/internal/ast"
	"uafcheck/internal/source"
)

func parse(t *testing.T, src string) (*ast.Module, *source.Diagnostics) {
	t.Helper()
	diags := &source.Diagnostics{}
	mod := ParseSource("t.chpl", src, diags)
	return mod, diags
}

func parseOK(t *testing.T, src string) *ast.Module {
	t.Helper()
	mod, diags := parse(t, src)
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags)
	}
	return mod
}

func onlyProc(t *testing.T, src string) *ast.ProcDecl {
	t.Helper()
	mod := parseOK(t, src)
	if len(mod.Procs) != 1 {
		t.Fatalf("want 1 proc, got %d", len(mod.Procs))
	}
	return mod.Procs[0]
}

func TestProcDeclaration(t *testing.T) {
	p := onlyProc(t, `proc add(a: int, ref b: int): int { return a + b; }`)
	if p.Name.Name != "add" {
		t.Errorf("name = %s", p.Name.Name)
	}
	if len(p.Params) != 2 {
		t.Fatalf("params = %d", len(p.Params))
	}
	if p.Params[0].ByRef || !p.Params[1].ByRef {
		t.Errorf("byref flags wrong: %+v", p.Params)
	}
	if p.Ret.Kind != ast.TypeInt {
		t.Errorf("return type = %v", p.Ret)
	}
	ret, ok := p.Body.Stmts[0].(*ast.ReturnStmt)
	if !ok {
		t.Fatalf("body[0] = %T", p.Body.Stmts[0])
	}
	if _, ok := ret.Value.(*ast.BinaryExpr); !ok {
		t.Errorf("return value = %T", ret.Value)
	}
}

func TestVarDeclarations(t *testing.T) {
	p := onlyProc(t, `proc f() {
	  var a: int = 1;
	  var b: bool;
	  const c: string = "s";
	  var d = 42;
	  var done$: sync bool;
	  var once$: single int;
	  var cnt: atomic int;
	}`)
	decls := p.Body.Stmts
	if len(decls) != 7 {
		t.Fatalf("stmts = %d", len(decls))
	}
	typ := func(i int) ast.Type { return decls[i].(*ast.VarDecl).Type }
	if typ(0).Kind != ast.TypeInt || typ(1).Kind != ast.TypeBool || typ(2).Kind != ast.TypeString {
		t.Error("basic types wrong")
	}
	if !decls[2].(*ast.VarDecl).Const {
		t.Error("const flag lost")
	}
	if typ(3).Kind != ast.TypeInt {
		t.Error("inferred type wrong")
	}
	if typ(4).Qual != ast.QualSync || typ(5).Qual != ast.QualSingle || typ(6).Qual != ast.QualAtomic {
		t.Error("sync qualifiers wrong")
	}
}

func TestTopLevelConfig(t *testing.T) {
	mod := parseOK(t, "config const flag = true;\nproc f() { writeln(flag); }")
	if len(mod.Configs) != 1 || !mod.Configs[0].Config {
		t.Fatalf("configs = %v", mod.Configs)
	}
	if mod.Proc("f") == nil || mod.Proc("g") != nil {
		t.Error("Proc lookup wrong")
	}
}

func TestBeginWithClauses(t *testing.T) {
	p := onlyProc(t, `proc f() {
	  var x: int = 1;
	  var y: int = 2;
	  begin with (ref x, in y) { writeln(x, y); }
	  begin { writeln(1); }
	}`)
	bg := p.Body.Stmts[2].(*ast.BeginStmt)
	if len(bg.With) != 2 {
		t.Fatalf("with clauses = %d", len(bg.With))
	}
	if bg.With[0].Intent != ast.IntentRef || bg.With[0].Name.Name != "x" {
		t.Errorf("clause 0 = %+v", bg.With[0])
	}
	if bg.With[1].Intent != ast.IntentIn || bg.With[1].Name.Name != "y" {
		t.Errorf("clause 1 = %+v", bg.With[1])
	}
	if bg.Label != "TASK A" {
		t.Errorf("label = %q", bg.Label)
	}
	bg2 := p.Body.Stmts[3].(*ast.BeginStmt)
	if len(bg2.With) != 0 || bg2.Label != "TASK B" {
		t.Errorf("second begin = %+v", bg2)
	}
}

func TestTaskLabelsBeyondZ(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("proc f() {\n")
	for i := 0; i < 28; i++ {
		sb.WriteString("begin { writeln(1); }\n")
	}
	sb.WriteString("}\n")
	p := onlyProc(t, sb.String())
	last := p.Body.Stmts[27].(*ast.BeginStmt)
	if last.Label != "TASK AB" {
		t.Errorf("28th task label = %q, want TASK AB", last.Label)
	}
}

func TestSyncBlockVsSyncType(t *testing.T) {
	p := onlyProc(t, `proc f() {
	  var done$: sync bool;
	  sync {
	    begin { writeln(1); }
	  }
	}`)
	if _, ok := p.Body.Stmts[0].(*ast.VarDecl); !ok {
		t.Fatalf("stmt 0 = %T", p.Body.Stmts[0])
	}
	sb, ok := p.Body.Stmts[1].(*ast.SyncStmt)
	if !ok {
		t.Fatalf("stmt 1 = %T", p.Body.Stmts[1])
	}
	if len(sb.Body.Stmts) != 1 {
		t.Error("sync block body wrong")
	}
}

func TestBareSyncReadStatement(t *testing.T) {
	p := onlyProc(t, `proc f() {
	  var done$: sync bool;
	  done$;
	}`)
	es, ok := p.Body.Stmts[1].(*ast.ExprStmt)
	if !ok {
		t.Fatalf("stmt = %T", p.Body.Stmts[1])
	}
	id, ok := es.X.(*ast.Ident)
	if !ok || id.Name != "done$" {
		t.Errorf("bare read = %v", es.X)
	}
}

func TestMethodCalls(t *testing.T) {
	p := onlyProc(t, `proc f() {
	  var done$: sync bool;
	  var a: atomic int;
	  done$.writeEF(true);
	  a.fetchAdd(2);
	  var v: int = a.read();
	}`)
	cs := p.Body.Stmts[2].(*ast.CallStmt)
	mc := cs.X.(*ast.MethodCallExpr)
	if mc.Recv.Name != "done$" || mc.Method != "writeEF" || len(mc.Args) != 1 {
		t.Errorf("method call = %+v", mc)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	p := onlyProc(t, `proc f() { var r: bool = 1 + 2 * 3 == 7 && true; }`)
	init := p.Body.Stmts[0].(*ast.VarDecl).Init
	if got := ast.PrintExpr(init); got != "(((1 + (2 * 3)) == 7) && true)" {
		t.Errorf("precedence tree = %s", got)
	}
}

func TestUnaryAndParens(t *testing.T) {
	p := onlyProc(t, `proc f() { var r: int = -(1 + 2) * 3; }`)
	init := p.Body.Stmts[0].(*ast.VarDecl).Init
	if got := ast.PrintExpr(init); got != "(-(1 + 2) * 3)" {
		t.Errorf("tree = %s", got)
	}
}

func TestIfElseChain(t *testing.T) {
	p := onlyProc(t, `proc f() {
	  var x: int = 1;
	  if (x > 2) { writeln(1); }
	  else if (x > 1) { writeln(2); }
	  else { writeln(3); }
	}`)
	ifs, ok := p.Body.Stmts[1].(*ast.IfStmt)
	if !ok {
		t.Fatalf("stmt = %T", p.Body.Stmts[1])
	}
	inner, ok := ifs.Else.Stmts[0].(*ast.IfStmt)
	if !ok {
		t.Fatalf("else-if = %T", ifs.Else.Stmts[0])
	}
	if inner.Else == nil {
		t.Error("final else missing")
	}
}

func TestLoops(t *testing.T) {
	p := onlyProc(t, `proc f() {
	  for i in 1..10 { writeln(i); }
	  var k: int = 3;
	  while (k > 0) { k -= 1; }
	}`)
	fr, ok := p.Body.Stmts[0].(*ast.ForStmt)
	if !ok || fr.Var.Name != "i" {
		t.Fatalf("for = %+v", p.Body.Stmts[0])
	}
	if _, ok := p.Body.Stmts[2].(*ast.WhileStmt); !ok {
		t.Fatalf("while = %T", p.Body.Stmts[2])
	}
}

func TestNestedProc(t *testing.T) {
	p := onlyProc(t, `proc outer() {
	  var x: int = 1;
	  proc inner() { writeln(x); }
	  inner();
	}`)
	ps, ok := p.Body.Stmts[1].(*ast.ProcStmt)
	if !ok || ps.Proc.Name.Name != "inner" {
		t.Fatalf("nested proc = %+v", p.Body.Stmts[1])
	}
}

func TestIncDecStatements(t *testing.T) {
	p := onlyProc(t, `proc f() { var x: int = 0; x++; x--; }`)
	inc := p.Body.Stmts[1].(*ast.IncDecStmt)
	dec := p.Body.Stmts[2].(*ast.IncDecStmt)
	if inc.Op != "++" || dec.Op != "--" {
		t.Errorf("ops = %s %s", inc.Op, dec.Op)
	}
}

func TestStyleNotesForDollarNames(t *testing.T) {
	_, diags := parse(t, `proc f() { var done: sync bool; var odd$: int = 1; }`)
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	if diags.Count(source.Note) != 2 {
		t.Errorf("want 2 style notes, got:\n%s", diags)
	}
}

func TestErrorRecoveryKeepsGoing(t *testing.T) {
	mod, diags := parse(t, `proc f() {
	  var = broken;
	  writeln(1);
	}
	proc g() { writeln(2); }`)
	if !diags.HasErrors() {
		t.Fatal("expected errors")
	}
	if len(mod.Procs) != 2 {
		t.Fatalf("recovery lost procs: %d", len(mod.Procs))
	}
	if mod.Proc("g") == nil {
		t.Error("proc g lost after error")
	}
}

func TestMissingSemicolonReported(t *testing.T) {
	_, diags := parse(t, `proc f() { var x: int = 1 writeln(x); }`)
	if !diags.HasErrors() {
		t.Error("missing semicolon not reported")
	}
}

func TestUntypedUninitializedRejected(t *testing.T) {
	_, diags := parse(t, `proc f() { var x; }`)
	if !diags.HasErrors() {
		t.Error("var without type or init not reported")
	}
}

func TestEmptyStatementsTolerated(t *testing.T) {
	p := onlyProc(t, `proc f() { ;; writeln(1); ; }`)
	if len(p.Body.Stmts) != 1 {
		t.Errorf("stmts = %d", len(p.Body.Stmts))
	}
}

// TestPrintParseRoundTrip: pretty-printing a parsed module and reparsing
// it yields the same printed form (printer fixpoint).
func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		`proc f() {
		  var x: int = 10;
		  var doneA$: sync bool;
		  begin with (ref x) {
		    writeln(x);
		    x += 1;
		    doneA$ = true;
		  }
		  doneA$;
		}`,
		`config const flag = true;
		proc g() {
		  var x: int = 1;
		  if (flag) { x = 2; } else { x = 3; }
		  for i in 1..3 { x += i; }
		  while (x > 0) { x -= 1; }
		  sync { begin { writeln(1); } }
		}`,
		`proc h(ref out: int, n: int): int {
		  proc helper(v: int): int { return v * 2; }
		  out = helper(n);
		  return out;
		}
		proc main() { var r: int = 0; h(r, 21); }`,
	}
	for i, src := range srcs {
		mod := parseOK(t, src)
		printed := ast.Print(mod)
		diags := &source.Diagnostics{}
		mod2 := ParseSource("roundtrip.chpl", printed, diags)
		if diags.HasErrors() {
			t.Fatalf("case %d: reparse failed:\n%s\nprinted:\n%s", i, diags, printed)
		}
		printed2 := ast.Print(mod2)
		if printed != printed2 {
			t.Errorf("case %d: printer not a fixpoint:\n--- first\n%s\n--- second\n%s",
				i, printed, printed2)
		}
	}
}

// TestParserTotalProperty: the parser must terminate (with diagnostics,
// not a hang) on arbitrary malformed input. Regression: `proc f( {` used
// to loop forever in the parameter list.
func TestParserTotalProperty(t *testing.T) {
	fragments := []string{
		"proc", "f", "(", ")", "{", "}", "var", "x", ":", "int", "=", "1",
		";", "begin", "with", "ref", "in", "sync", "if", "else", "while",
		"for", "..", "+", "==", "&&", "writeln", "\"s\"", "$", ",", ".",
		"readFE", "config", "const", "return", "atomic", "single",
	}
	check := func(picks []uint8) bool {
		var sb strings.Builder
		for _, p := range picks {
			sb.WriteString(fragments[int(p)%len(fragments)])
			sb.WriteByte(' ')
		}
		diags := &source.Diagnostics{}
		done := make(chan struct{})
		go func() {
			ParseSource("fuzz.chpl", sb.String(), diags)
			close(done)
		}()
		select {
		case <-done:
			return true
		case <-timeAfter():
			t.Logf("parser hung on: %s", sb.String())
			return false
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	// The original regression input, explicitly.
	diags := &source.Diagnostics{}
	ParseSource("regress.chpl", "proc f( {", diags)
	if !diags.HasErrors() {
		t.Error("malformed proc header accepted")
	}
}

func timeAfter() <-chan time.Time { return time.After(2 * time.Second) }

func TestSpanSanity(t *testing.T) {
	src := `proc f() { var x: int = 1; writeln(x); }`
	mod := parseOK(t, src)
	ast.Walk(mod, func(n ast.Node) bool {
		sp := n.Span()
		if sp.IsValid() {
			if int(sp.End) > len(src)+1 || sp.Start < 0 {
				t.Errorf("%T span out of range: %+v", n, sp)
			}
		}
		return true
	})
}

// Parse reports every lexer error first, in source order, then every
// parser error, even though the parser pulls tokens from the lexer as it
// goes. The ErrParse text of the public API lists diagnostics in this
// order without sorting, so the order is part of the contract.
func TestDiagnosticOrderLexerFirst(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "illegal character after missing semicolon",
			src:  "proc main() {\n  var x: int = 1\n  var y: int = 2 # 3;\n}\n",
			want: []string{
				`t.chpl:3:18: error: illegal character "#"`,
				`t.chpl:3:3: error: expected ";", found var`,
				`t.chpl:3:18: error: expected ";", found ILLEGAL`,
				`t.chpl:3:18: error: unexpected token ILLEGAL at start of statement`,
			},
		},
		{
			name: "unterminated string after stray top-level token",
			src:  "x = 1;\nproc main() {\n  writeln(\"abc);\n}\n",
			want: []string{
				`t.chpl:3:11: error: unterminated string literal`,
				`t.chpl:1:1: error: expected top-level proc or config declaration, found IDENT("x")`,
				`t.chpl:4:1: error: expected ",", found }`,
				`t.chpl:4:1: error: expected expression, found }`,
				`t.chpl:5:1: error: expected ")", found EOF`,
				`t.chpl:5:1: error: expected ";", found EOF`,
				`t.chpl:5:1: error: expected "}", found EOF`,
			},
		},
		{
			name: "unterminated block comment after missing semicolon",
			src:  "proc main() {\n  var a: int = 1\n}\n/* never closed\n",
			want: []string{
				`t.chpl:4:1: error: unterminated block comment`,
				`t.chpl:3:1: error: expected ";", found }`,
			},
		},
		{
			name: "float literal after missing expression",
			src:  "proc main() {\n  var a = ;\n  var b = 1.5;\n}\n",
			want: []string{
				`t.chpl:3:11: error: floating-point literals are not part of MiniChapel`,
				`t.chpl:2:11: error: expected expression, found ;`,
				`t.chpl:3:3: error: expected ";", found var`,
				`t.chpl:3:11: error: invalid integer literal "1.5"`,
			},
		},
		{
			name: "two lexer errors around parser errors",
			src:  "proc main() {\n  var a = 2.5\n  @\n}\n}\n",
			want: []string{
				`t.chpl:2:11: error: floating-point literals are not part of MiniChapel`,
				`t.chpl:3:3: error: illegal character "@"`,
				`t.chpl:2:11: error: invalid integer literal "2.5"`,
				`t.chpl:3:3: error: expected ";", found ILLEGAL`,
				`t.chpl:3:3: error: unexpected token ILLEGAL at start of statement`,
				`t.chpl:5:1: error: expected top-level proc or config declaration, found }`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, diags := parse(t, tc.src)
			var got []string
			for _, d := range diags.All() {
				got = append(got, d.String())
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("diagnostics:\n%s\nwant:\n%s",
					strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}

// TestLeafNodesFromChunks checks the nodes the parser hands out from
// its per-parse chunks: every Ident and IntLit is its own node holding
// its own token, also past the first chunk, and Module.Idents counts
// the Idents. The dense inputs hold more nodes than the length-based
// first chunk, so later chunks are used too.
func TestLeafNodesFromChunks(t *testing.T) {
	for _, src := range []string{
		"proc f() { var a = 1; a=a+a+a+a+a+a+a+a+a+a+a+a+a+a+a+a+a+a+a+a+a+a+a+a; }",
		"proc g() { var b = 1+2+3+4+5+6+7+8+9+10+11+12+13+14+15+16+17+18+19+20; }",
		"proc h(x: int) { writeln(x); }",
		"",
	} {
		mod := parseOK(t, src)
		seen := map[ast.Node]bool{}
		idents := 0
		ast.Walk(mod, func(n ast.Node) bool {
			text := ""
			switch x := n.(type) {
			case *ast.ProcDecl:
				idents++ // Walk does not visit procedure names
				return true
			case *ast.Ident:
				idents++
				text = x.Name
			case *ast.IntLit:
				text = strconv.FormatInt(x.Value, 10)
			default:
				return true
			}
			if seen[n] {
				t.Errorf("%q: node %q at %v reached twice", src, text, n.Span())
			}
			seen[n] = true
			if sp := n.Span(); src[sp.Start:sp.End] != text {
				t.Errorf("%q: node %q spans %q", src, text, src[sp.Start:sp.End])
			}
			return true
		})
		if mod.Idents != idents {
			t.Errorf("%q: Module.Idents = %d, tree has %d", src, mod.Idents, idents)
		}
	}
}
