package sym

import (
	"testing"

	"uafcheck/internal/ast"
	"uafcheck/internal/parser"
	"uafcheck/internal/source"
)

func resolve(t *testing.T, src string) (*Info, *source.Diagnostics) {
	t.Helper()
	diags := &source.Diagnostics{}
	mod := parser.ParseSource("t.chpl", src, diags)
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags)
	}
	info := Resolve(mod, diags)
	return info, diags
}

func resolveOK(t *testing.T, src string) *Info {
	t.Helper()
	info, diags := resolve(t, src)
	if diags.HasErrors() {
		t.Fatalf("resolve errors:\n%s", diags)
	}
	return info
}

func TestBasicResolution(t *testing.T) {
	info := resolveOK(t, `proc f() {
	  var x: int = 1;
	  writeln(x);
	}`)
	proc := info.Module.Procs[0]
	decl := proc.Body.Stmts[0].(*ast.VarDecl)
	use := proc.Body.Stmts[1].(*ast.CallStmt).X.(*ast.CallExpr).Args[0].(*ast.Ident)
	declSym := info.Uses[decl.Name]
	useSym := info.Uses[use]
	if declSym == nil || useSym == nil || declSym != useSym {
		t.Fatalf("use not bound to decl: %v vs %v", declSym, useSym)
	}
	if declSym.Kind != KindVar {
		t.Errorf("kind = %v", declSym.Kind)
	}
}

func TestShadowing(t *testing.T) {
	info := resolveOK(t, `proc f() {
	  var x: int = 1;
	  {
	    var x: int = 2;
	    writeln(x);
	  }
	  writeln(x);
	}`)
	proc := info.Module.Procs[0]
	outer := info.Uses[proc.Body.Stmts[0].(*ast.VarDecl).Name]
	blk := proc.Body.Stmts[1].(*ast.BlockStmt)
	inner := info.Uses[blk.Stmts[0].(*ast.VarDecl).Name]
	innerUse := info.Uses[blk.Stmts[1].(*ast.CallStmt).X.(*ast.CallExpr).Args[0].(*ast.Ident)]
	outerUse := info.Uses[proc.Body.Stmts[2].(*ast.CallStmt).X.(*ast.CallExpr).Args[0].(*ast.Ident)]
	if inner == outer {
		t.Fatal("shadow not separated")
	}
	if innerUse != inner {
		t.Error("inner use bound to outer")
	}
	if outerUse != outer {
		t.Error("outer use bound to inner")
	}

	// An `in` copy shadows the outer variable inside the task only.
	info = resolveOK(t, `proc g() {
	  var y: int = 1;
	  begin with (in y) {
	    writeln(y);
	  }
	  writeln(y);
	}`)
	proc = info.Module.Procs[0]
	outerY := info.Uses[proc.Body.Stmts[0].(*ast.VarDecl).Name]
	b := proc.Body.Stmts[1].(*ast.BeginStmt)
	taskUse := info.Uses[b.Body.Stmts[0].(*ast.CallStmt).X.(*ast.CallExpr).Args[0].(*ast.Ident)]
	afterUse := info.Uses[proc.Body.Stmts[2].(*ast.CallStmt).X.(*ast.CallExpr).Args[0].(*ast.Ident)]
	if taskUse == nil || taskUse.Kind != KindCopy || taskUse.Origin != outerY {
		t.Errorf("task use bound to %v, want the in-copy of %v", taskUse, outerY)
	}
	if got := info.ScopeFor(b).LookupLocal("y"); got != taskUse {
		t.Errorf("task scope LookupLocal(y) = %v, want the copy %v", got, taskUse)
	}
	if afterUse != outerY {
		t.Errorf("use after the task bound to %v, want %v", afterUse, outerY)
	}
}

func TestRedeclarationError(t *testing.T) {
	_, diags := resolve(t, `proc f() { var x: int = 1; var x: int = 2; }`)
	if !diags.HasErrors() {
		t.Error("redeclaration not reported")
	}

	// After a redeclaration, later uses bind to the last declaration.
	info, diags := resolve(t, `proc f() {
	  var x: int = 1;
	  var x: bool = true;
	  writeln(x);
	}`)
	if n := diags.Count(source.Error); n != 1 {
		t.Fatalf("got %d errors, want 1 redeclaration:\n%s", n, diags)
	}
	proc := info.Module.Procs[0]
	first := info.Uses[proc.Body.Stmts[0].(*ast.VarDecl).Name]
	second := info.Uses[proc.Body.Stmts[1].(*ast.VarDecl).Name]
	use := info.Uses[proc.Body.Stmts[2].(*ast.CallStmt).X.(*ast.CallExpr).Args[0].(*ast.Ident)]
	if first == second {
		t.Fatal("redeclaration did not create a second symbol")
	}
	if use != second {
		t.Errorf("use bound to %v, want the last declaration %v", use, second)
	}
	if got := info.ScopeFor(proc).LookupLocal("x"); got != second {
		t.Errorf("LookupLocal(x) = %v, want %v", got, second)
	}
	if syms := info.ScopeFor(proc).Symbols(); len(syms) != 2 || syms[0] != first || syms[1] != second {
		t.Errorf("Symbols() = %v, want both declarations in order", syms)
	}
}

// DeclareExtern keeps the first declaration of a name; later ones
// return it instead of declaring a second symbol.
func TestDeclareExternFirstWins(t *testing.T) {
	parse := func(src string) *ast.Module {
		diags := &source.Diagnostics{}
		mod := parser.ParseSource("t.chpl", src, diags)
		if diags.HasErrors() {
			t.Fatalf("parse errors:\n%s", diags)
		}
		return mod
	}
	a := parse("proc p() { }\nproc q() { }\n").Procs
	b := parse("proc p(x: int) { }\n").Procs
	sc := NewLinkerScope()
	p1 := DeclareExtern(sc, a[0])
	q := DeclareExtern(sc, a[1])
	p2 := DeclareExtern(sc, b[0])
	if p2 != p1 || p1.Proc != a[0] {
		t.Errorf("second p = %v (proc %p), want the first %v (proc %p)", p2, p2.Proc, p1, a[0])
	}
	if got := sc.LookupLocal("p"); got != p1 {
		t.Errorf("LookupLocal(p) = %v, want %v", got, p1)
	}
	if got := sc.Lookup("q"); got != q {
		t.Errorf("Lookup(q) = %v, want %v", got, q)
	}
	if n := len(sc.Symbols()); n != 2 {
		t.Errorf("linker scope holds %d symbols, want 2", n)
	}
}

func TestUndefinedError(t *testing.T) {
	_, diags := resolve(t, `proc f() { writeln(mystery); }`)
	if !diags.HasErrors() {
		t.Error("undefined variable not reported")
	}
	_, diags = resolve(t, `proc f() { unknownProc(1); }`)
	if !diags.HasErrors() {
		t.Error("undefined proc not reported")
	}
}

func TestBeginScopesAndTaskDistance(t *testing.T) {
	info := resolveOK(t, `proc f() {
	  var x: int = 1;
	  begin with (ref x) {
	    writeln(x);
	    begin with (ref x) {
	      writeln(x);
	    }
	  }
	}`)
	proc := info.Module.Procs[0]
	procScope := info.ScopeFor(proc)
	if procScope == nil || procScope.Kind != ScopeProc {
		t.Fatalf("proc scope = %v", procScope)
	}
	outerBegin := proc.Body.Stmts[1].(*ast.BeginStmt)
	outerScope := info.ScopeFor(outerBegin)
	if outerScope.Kind != ScopeBegin {
		t.Fatalf("begin scope kind = %v", outerScope.Kind)
	}
	innerBegin := outerBegin.Body.Stmts[1].(*ast.BeginStmt)
	innerScope := info.ScopeFor(innerBegin)

	if d := outerScope.TaskDistance(procScope); d != 1 {
		t.Errorf("outer task distance = %d, want 1", d)
	}
	if d := innerScope.TaskDistance(procScope); d != 2 {
		t.Errorf("inner task distance = %d, want 2", d)
	}
	if d := innerScope.TaskDistance(outerScope); d != 1 {
		t.Errorf("inner-to-outer distance = %d, want 1", d)
	}
	if d := procScope.TaskDistance(innerScope); d != -1 {
		t.Errorf("non-ancestor distance = %d, want -1", d)
	}
	if innerScope.EnclosingBegin() != innerScope {
		t.Error("EnclosingBegin of begin scope should be itself")
	}
	if procScope.EnclosingBegin() != nil {
		t.Error("proc scope has no enclosing begin")
	}
	if innerScope.EnclosingProc() != procScope {
		t.Error("EnclosingProc wrong")
	}
}

func TestInIntentCreatesCopy(t *testing.T) {
	info := resolveOK(t, `proc f() {
	  var x: int = 1;
	  begin with (in x) {
	    writeln(x);
	  }
	}`)
	proc := info.Module.Procs[0]
	outer := info.Uses[proc.Body.Stmts[0].(*ast.VarDecl).Name]
	bg := proc.Body.Stmts[1].(*ast.BeginStmt)
	use := bg.Body.Stmts[0].(*ast.CallStmt).X.(*ast.CallExpr).Args[0].(*ast.Ident)
	useSym := info.Uses[use]
	if useSym == outer {
		t.Fatal("in-intent use bound to outer variable, not the copy")
	}
	if useSym.Kind != KindCopy || useSym.Origin != outer {
		t.Errorf("copy symbol = %+v", useSym)
	}
	if cp := info.CopyFor[bg][outer]; cp != useSym {
		t.Errorf("CopyFor mismatch: %v vs %v", cp, useSym)
	}
}

func TestRefIntentKeepsOuterBinding(t *testing.T) {
	info := resolveOK(t, `proc f() {
	  var x: int = 1;
	  begin with (ref x) { x = 2; }
	}`)
	proc := info.Module.Procs[0]
	outer := info.Uses[proc.Body.Stmts[0].(*ast.VarDecl).Name]
	bg := proc.Body.Stmts[1].(*ast.BeginStmt)
	lhs := bg.Body.Stmts[0].(*ast.AssignStmt).Lhs
	if info.Uses[lhs] != outer {
		t.Error("ref-intent use not bound to outer variable")
	}
}

func TestSyncVarUniversallyVisibleNote(t *testing.T) {
	_, diags := resolve(t, `proc f() {
	  var done$: sync bool;
	  begin with (ref done$) { done$ = true; }
	}`)
	if diags.HasErrors() {
		t.Fatalf("unexpected errors:\n%s", diags)
	}
	found := false
	for _, d := range diags.All() {
		if d.Severity == source.Note && contains(d.Message, "universally visible") {
			found = true
		}
	}
	if !found {
		t.Error("redundant with-clause on sync var not noted")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestNestedProcSeesParentVariables(t *testing.T) {
	info := resolveOK(t, `proc outer() {
	  var x: int = 1;
	  proc inner() { writeln(x); }
	  inner();
	}`)
	proc := info.Module.Procs[0]
	outerX := info.Uses[proc.Body.Stmts[0].(*ast.VarDecl).Name]
	nested := proc.Body.Stmts[1].(*ast.ProcStmt).Proc
	use := nested.Body.Stmts[0].(*ast.CallStmt).X.(*ast.CallExpr).Args[0].(*ast.Ident)
	if info.Uses[use] != outerX {
		t.Error("nested proc's x not bound to parent's x")
	}
}

func TestForwardNestedProcCall(t *testing.T) {
	info := resolveOK(t, `proc outer() {
	  helper();
	  proc helper() { writeln(1); }
	}`)
	proc := info.Module.Procs[0]
	call := proc.Body.Stmts[0].(*ast.CallStmt).X.(*ast.CallExpr)
	sym := info.Uses[call.Fun]
	if sym == nil || sym.Kind != KindProc {
		t.Error("forward call to nested proc unresolved")
	}
}

func TestMutualTopLevelProcs(t *testing.T) {
	info := resolveOK(t, `
	proc a() { b(); }
	proc b() { a(); }`)
	_ = info
}

func TestMethodClassification(t *testing.T) {
	info := resolveOK(t, `proc f() {
	  var s$: sync bool;
	  var g$: single int;
	  var a: atomic int;
	  s$.writeEF(true);
	  var v1: bool = s$.readFE();
	  var v2: int = g$.readFF();
	  g$.writeEF(3);
	  a.write(1);
	  var v3: int = a.read();
	  a.fetchAdd(2);
	  a.waitFor(3);
	}`)
	want := map[string]SyncOpKind{
		"writeEF":  OpWriteEF,
		"readFE":   OpReadFE,
		"readFF":   OpReadFF,
		"write":    OpAtomicWrite,
		"read":     OpAtomicRead,
		"fetchAdd": OpAtomicWrite,
		"waitFor":  OpAtomicWait,
	}
	seen := map[string]bool{}
	for call, op := range info.MethodOps {
		if w, ok := want[call.Method]; ok {
			if call.Method == "writeEF" {
				// appears on both sync and single; both map to OpWriteEF
			}
			if op != w {
				t.Errorf("%s classified %v, want %v", call.Method, op, w)
			}
			seen[call.Method] = true
		}
	}
	for m := range want {
		if !seen[m] {
			t.Errorf("method %s never classified", m)
		}
	}
}

func TestInvalidMethodReported(t *testing.T) {
	_, diags := resolve(t, `proc f() {
	  var s$: sync bool;
	  s$.frobnicate();
	}`)
	if !diags.HasErrors() {
		t.Error("invalid sync method not reported")
	}
	_, diags = resolve(t, `proc f() {
	  var x: int = 1;
	  x.readFE();
	}`)
	if !diags.HasErrors() {
		t.Error("method call on plain variable not reported")
	}
}

func TestBlockingClassification(t *testing.T) {
	if !OpReadFE.Blocking() || !OpReadFF.Blocking() || !OpWriteEF.Blocking() {
		t.Error("blocking ops misclassified")
	}
	if OpAtomicRead.Blocking() || OpAtomicWrite.Blocking() || OpNone.Blocking() {
		t.Error("non-blocking ops misclassified")
	}
}

func TestScopePath(t *testing.T) {
	info := resolveOK(t, `proc f() { begin { writeln(1); } }`)
	bg := info.Module.Procs[0].Body.Stmts[0].(*ast.BeginStmt)
	path := info.ScopeFor(bg).Path()
	if path != "module/proc/begin" {
		t.Errorf("Path = %q", path)
	}
}

func TestConfigKind(t *testing.T) {
	info := resolveOK(t, "config const flag = true;\nproc f() { writeln(flag); }")
	cfg := info.Uses[info.Module.Configs[0].Name]
	if cfg.Kind != KindConfig {
		t.Errorf("config kind = %v", cfg.Kind)
	}
}

func TestSymbolStringAndKinds(t *testing.T) {
	info := resolveOK(t, `proc f(ref r: int, v: bool) {
	  for i in 1..2 { writeln(i); }
	}`)
	scope := info.ScopeFor(info.Module.Procs[0])
	syms := scope.Symbols()
	if len(syms) != 2 {
		t.Fatalf("params = %d", len(syms))
	}
	if !syms[0].ByRef || syms[0].Kind != KindParam {
		t.Errorf("ref param = %+v", syms[0])
	}
	if syms[0].String() == "" {
		t.Error("Symbol.String empty")
	}
}
