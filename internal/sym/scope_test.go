package sym

import (
	"fmt"
	"strings"
	"testing"

	"uafcheck/internal/ast"
	"uafcheck/internal/parser"
	"uafcheck/internal/source"
)

// LookupLocal gives the latest declaration of every name at every
// size, below indexFrom (backward scan) and above it (index).
func TestScopeLookupAcrossIndex(t *testing.T) {
	sc := &Scope{}
	latest := make(map[string]*Symbol)
	for i := 0; i < 3*indexFrom; i++ {
		// Every third symbol redeclares an earlier name.
		name := fmt.Sprintf("v%d", i)
		if i%3 == 2 {
			name = fmt.Sprintf("v%d", i/2)
		}
		s := &Symbol{ID: i, Name: name}
		sc.add(s)
		latest[name] = s
		for n, want := range latest {
			if got := sc.LookupLocal(n); got != want {
				t.Fatalf("after %d symbols: LookupLocal(%s) = %v, want %v", i+1, n, got, want)
			}
		}
		if got := sc.LookupLocal("absent"); got != nil {
			t.Fatalf("after %d symbols: LookupLocal(absent) = %v", i+1, got)
		}
	}
	if sc.index == nil {
		t.Errorf("a scope of %d symbols has no index", len(sc.ordered))
	}
	if n := len(sc.Symbols()); n != 3*indexFrom {
		t.Errorf("Symbols() holds %d, want every declaration (%d)", n, 3*indexFrom)
	}
}

// wideModule parses a file of n procedures named prefix0..prefix<n-1>,
// each calling its predecessor and a procedure another file declares.
func wideModule(tb testing.TB, prefix string, n int) *ast.Module {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "proc %s%d() {\n  %s%d();\n  other%d();\n}\n", prefix, i, prefix, max(i-1, 0), i)
	}
	diags := &source.Diagnostics{}
	mod := parser.ParseSource(prefix+".chpl", b.String(), diags)
	if diags.HasErrors() {
		tb.Fatalf("parse errors:\n%s", diags)
	}
	return mod
}

// resolveWide links a wide file against a linker scope holding another
// wide file's procedures and reports the calls left unresolved.
func resolveWide(local, other *ast.Module) int {
	linker := NewLinkerScope()
	for _, p := range other.Procs {
		DeclareExtern(linker, p)
	}
	diags := &source.Diagnostics{}
	return len(ResolveWith(local, diags, linker).UnresolvedCalls)
}

// A wide file resolved against a wide linker scope binds every call
// to its procedure, and both module-kind scopes look names up through
// their index rather than a scan, which would make resolution
// quadratic in the number of procedures (BenchmarkResolveWide shows
// the time per procedure staying flat).
func TestWideScopesIndexed(t *testing.T) {
	const n = 2000
	local, other := wideModule(t, "a", n), wideModule(t, "other", n)
	linker := NewLinkerScope()
	for _, p := range other.Procs {
		DeclareExtern(linker, p)
	}
	diags := &source.Diagnostics{}
	info := ResolveWith(local, diags, linker)
	if diags.HasErrors() || len(info.UnresolvedCalls) != 0 {
		t.Fatalf("%d unresolved calls:\n%s", len(info.UnresolvedCalls), diags)
	}
	for _, sc := range []*Scope{info.ModuleScope, linker} {
		if len(sc.index) != n {
			t.Errorf("scope %d: index holds %d of %d names", sc.ID, len(sc.index), n)
		}
	}
	for i, p := range local.Procs {
		calls := p.Body.Stmts
		self := info.Uses[calls[0].(*ast.CallStmt).X.(*ast.CallExpr).Fun]
		ext := info.Uses[calls[1].(*ast.CallStmt).X.(*ast.CallExpr).Fun]
		if self == nil || self.Proc != local.Procs[max(i-1, 0)] {
			t.Fatalf("%s: local call bound to %v", p.Name.Name, self)
		}
		if ext == nil || ext.Proc != other.Procs[i] || ext.Scope != linker {
			t.Fatalf("%s: linked call bound to %v", p.Name.Name, ext)
		}
	}
}

// BenchmarkResolveWide resolves one file of n procedures against a
// linker scope of n more; ns/op divided by n should stay flat as n
// grows.
func BenchmarkResolveWide(b *testing.B) {
	for _, n := range []int{1000, 8000, 32000} {
		local, other := wideModule(b, "a", n), wideModule(b, "other", n)
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resolveWide(local, other)
			}
		})
	}
}
