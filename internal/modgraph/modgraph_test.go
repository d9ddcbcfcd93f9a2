package modgraph_test

import (
	"fmt"
	"strings"
	"testing"

	"uafcheck/internal/ast"
	"uafcheck/internal/ir"
	"uafcheck/internal/modgraph"
	"uafcheck/internal/parser"
	"uafcheck/internal/source"
)

// link parses and links named sources in order, failing the test on any
// parse error (resolution errors are the caller's business).
func link(t testing.TB, files ...[2]string) *modgraph.Graph {
	t.Helper()
	var mfs []*modgraph.File
	for _, f := range files {
		sf := source.NewFile(f[0], f[1])
		diags := &source.Diagnostics{}
		mod := parser.Parse(sf, diags)
		if diags.HasErrors() {
			t.Fatalf("%s: parse errors:\n%s", f[0], diags.All())
		}
		mfs = append(mfs, &modgraph.File{Name: f[0], Src: sf, Mod: mod, Diags: diags})
	}
	return modgraph.Link(mfs)
}

// proc finds a declaration by file and name.
func proc(t *testing.T, g *modgraph.Graph, file, name string) *ast.ProcDecl {
	t.Helper()
	for _, f := range g.Files {
		if f.Name != file {
			continue
		}
		for _, p := range f.Mod.Procs {
			if p.Name.Name == name {
				return p
			}
		}
	}
	t.Fatalf("no proc %s in %s", name, file)
	return nil
}

func TestSummaryDirectAndEscapingEffects(t *testing.T) {
	g := link(t,
		[2]string{"a.chpl", `proc reader(ref v: int) {
  writeln(v);
}
proc escwriter(ref v: int) {
  begin with (ref v) {
    v = v + 1;
  }
}
proc contained(ref v: int) {
  sync {
    begin with (ref v) {
      v = 1;
    }
  }
}
`})
	cases := []struct {
		name string
		want ir.ParamEffects
	}{
		{"reader", ir.ParamEffects{DirectRead: true}},
		// v = v + 1 both reads and writes v from the escaping task.
		{"escwriter", ir.ParamEffects{EscRead: true, EscWrite: true}},
		// A begin inside a sync region is contained: the region waits
		// for it, so the write cannot outlive the call.
		{"contained", ir.ParamEffects{DirectWrite: true}},
	}
	for _, tc := range cases {
		p := proc(t, g, "a.chpl", tc.name)
		if got := g.Summaries[p][0]; got != tc.want {
			t.Errorf("%s summary = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestFixpointMutualRecursion: a <-> b converge instead of hitting a
// recursion cutoff; both expose the union of effects along the cycle.
func TestFixpointMutualRecursion(t *testing.T) {
	g := link(t,
		[2]string{"a.chpl", "proc a(ref x: int) {\n  b(x);\n}\n"},
		[2]string{"b.chpl", "proc b(ref y: int) {\n  if (y > 0) {\n    a(y);\n  }\n  y = 1;\n}\n"},
	)
	pa := proc(t, g, "a.chpl", "a")
	pb := proc(t, g, "b.chpl", "b")
	// A ref argument is read at the call site itself, and b reads y in
	// its branch condition; both procedures converge on read+write.
	want := ir.ParamEffects{DirectRead: true, DirectWrite: true}
	if got := g.Summaries[pa][0]; got != want {
		t.Errorf("a summary = %+v, want %+v", got, want)
	}
	wantB := ir.ParamEffects{DirectRead: true, DirectWrite: true}
	if got := g.Summaries[pb][0]; got != wantB {
		t.Errorf("b summary = %+v, want %+v", got, wantB)
	}
}

// TestEffectPropagationAcrossFiles: an escaping effect two hops away
// surfaces in the transitive caller's summary, and the intermediate
// caller is marked as a module-mode analysis root even though its own
// body has no begin.
func TestEffectPropagationAcrossFiles(t *testing.T) {
	g := link(t,
		[2]string{"leaf.chpl", "proc leaf(ref v: int) {\n  begin with (ref v) {\n    v = v + 1;\n  }\n}\n"},
		[2]string{"mid.chpl", "proc mid(ref w: int) {\n  leaf(w);\n}\n"},
		[2]string{"seq.chpl", "proc seq(ref u: int) {\n  u = 2;\n}\n"},
	)
	mid := proc(t, g, "mid.chpl", "mid")
	if got, want := g.Summaries[mid][0], (ir.ParamEffects{DirectRead: true, EscRead: true, EscWrite: true}); got != want {
		t.Errorf("mid summary = %+v, want %+v", got, want)
	}
	if !g.NeedsAnalysis(mid) {
		t.Error("mid inherits an escaping task from leaf; NeedsAnalysis should be true")
	}
	if seq := proc(t, g, "seq.chpl", "seq"); g.NeedsAnalysis(seq) {
		t.Error("seq is purely sequential; NeedsAnalysis should be false")
	}
}

// TestLinkerFirstWinsAndShadowing: with duplicate top-level names, a
// caller in a third file binds the first declaration in file order,
// while the duplicating file's own callers bind their local one.
func TestLinkerFirstWinsAndShadowing(t *testing.T) {
	g := link(t,
		[2]string{"one.chpl", "proc dup(ref v: int) {\n  v = 1;\n}\n"},
		[2]string{"two.chpl", "proc dup(ref v: int) {\n  begin with (ref v) {\n    v = 2;\n  }\n}\nproc local(ref u: int) {\n  dup(u);\n}\n"},
		[2]string{"three.chpl", "proc caller(ref u: int) {\n  dup(u);\n}\n"},
	)
	caller := proc(t, g, "three.chpl", "caller")
	if got, want := g.Summaries[caller][0], (ir.ParamEffects{DirectRead: true, DirectWrite: true}); got != want {
		t.Errorf("caller summary = %+v, want %+v (first declaration should win)", got, want)
	}
	loc := proc(t, g, "two.chpl", "local")
	if got, want := g.Summaries[loc][0], (ir.ParamEffects{DirectRead: true, EscWrite: true}); got != want {
		t.Errorf("local summary = %+v, want %+v (own file should shadow)", got, want)
	}
	// Both declarations keep distinct graph entries.
	d1 := proc(t, g, "one.chpl", "dup")
	d2 := proc(t, g, "two.chpl", "dup")
	if g.DeclFile[d1] != 0 || g.DeclFile[d2] != 1 {
		t.Errorf("DeclFile = %d, %d; want 0, 1", g.DeclFile[d1], g.DeclFile[d2])
	}
	if f1, f2 := g.SummaryFingerprint(d1), g.SummaryFingerprint(d2); f1 == f2 {
		t.Errorf("duplicate declarations share a fingerprint: %q", f1)
	}
}

func TestSummaryFingerprintShape(t *testing.T) {
	g := link(t,
		[2]string{"a.chpl", "proc f(ref x: int, y: int) {\n  begin with (ref x) {\n    x = 1;\n  }\n}\n"})
	p := proc(t, g, "a.chpl", "f")
	// One effect block per formal, by-value formals all-false.
	want := "a.chpl:f|false false false true|false false false false"
	if got := g.SummaryFingerprint(p); got != want {
		t.Errorf("fingerprint = %q, want %q", got, want)
	}
}

func TestDirectCalleesDeterministicOrder(t *testing.T) {
	g := link(t,
		[2]string{"z.chpl", "proc zeta(ref v: int) {\n  v = 1;\n}\nproc alpha(ref v: int) {\n  v = 2;\n}\n"},
		[2]string{"a.chpl", "proc omega(ref v: int) {\n  v = 3;\n}\n"},
		[2]string{"m.chpl", "proc main() {\n  var x: int = 0;\n  omega(x);\n  zeta(x);\n  alpha(x);\n  zeta(x);\n}\n"},
	)
	var f *modgraph.File
	for _, mf := range g.Files {
		if mf.Name == "m.chpl" {
			f = mf
		}
	}
	callees := g.DirectCallees(f, proc(t, g, "m.chpl", "main"))
	var got []string
	for _, d := range callees {
		got = append(got, d.Name.Name)
	}
	// Defining file index first (z.chpl=0, a.chpl=1), name within a
	// file; duplicates collapse.
	want := []string{"alpha", "zeta", "omega"}
	if len(got) != len(want) {
		t.Fatalf("callees = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("callees = %v, want %v", got, want)
		}
	}
}

func TestUnresolvedCallsListed(t *testing.T) {
	g := link(t,
		[2]string{"a.chpl", "proc main() {\n  var x: int = 0;\n  nowhere(x);\n}\n"})
	if len(g.Unresolved) != 1 {
		t.Fatalf("Unresolved = %+v, want exactly one entry", g.Unresolved)
	}
	u := g.Unresolved[0]
	if u.File != "a.chpl" || u.Name != "nowhere" {
		t.Errorf("Unresolved[0] = %+v, want file a.chpl, name nowhere", u)
	}
}

// TestWideLinkerScope links many procedures across many files. Every
// call resolves to the declaration the linker rules name: a file's own
// procedure first, else the first declaration in file order. Calls to
// names no file declares give exactly one diagnostic each.
func TestWideLinkerScope(t *testing.T) {
	const nFiles, nProcs = 8, 40
	var files [][2]string
	for f := 0; f < nFiles; f++ {
		var b strings.Builder
		for i := 0; i < nProcs; i++ {
			// Each proc calls its namesake in the next file. Each
			// file's first proc also calls shared, which files 2 and 5
			// both declare, and a name no file declares.
			fmt.Fprintf(&b, "proc p%d_%d(ref v: int) {\n  p%d_%d(v);\n", f, i, (f+1)%nFiles, i)
			if i == 0 {
				fmt.Fprintf(&b, "  shared(v);\n  missing%d(v);\n", f)
			}
			b.WriteString("}\n")
		}
		if f == 2 || f == 5 {
			fmt.Fprintf(&b, "proc shared(ref w: int) {\n  w = %d;\n}\n", f)
		}
		files = append(files, [2]string{fmt.Sprintf("f%d.chpl", f), b.String()})
	}
	g := link(t, files...)

	if n := len(g.Linker.Symbols()); n != nFiles*nProcs+1 {
		t.Errorf("linker scope holds %d symbols, want %d", n, nFiles*nProcs+1)
	}
	sharedIn := func(f int) *ast.ProcDecl { return proc(t, g, fmt.Sprintf("f%d.chpl", f), "shared") }
	for f, mf := range g.Files {
		wantShared := sharedIn(2)
		if f == 5 {
			wantShared = sharedIn(5)
		}
		calls := 0
		ast.Walk(mf.Mod, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var want *ast.ProcDecl
			switch name := c.Fun.Name; {
			case name == "shared":
				want = wantShared
			case strings.HasPrefix(name, "missing"):
				if s := mf.Info.Uses[c.Fun]; s != nil {
					t.Errorf("%s: %s resolved to %v", mf.Name, name, s)
				}
				return true
			default:
				var tf, ti int
				fmt.Sscanf(name, "p%d_%d", &tf, &ti)
				want = proc(t, g, fmt.Sprintf("f%d.chpl", tf), name)
			}
			calls++
			if s := mf.Info.Uses[c.Fun]; s == nil || s.Proc != want {
				t.Errorf("%s: call %s resolved to %v, want the declaration in %s",
					mf.Name, c.Fun.Name, s, g.Files[g.DeclFile[want]].Name)
			}
			return true
		})
		if calls != nProcs+1 {
			t.Errorf("%s: checked %d calls, want %d", mf.Name, calls, nProcs+1)
		}
		var got []string
		for _, d := range mf.Diags.All() {
			got = append(got, d.String())
		}
		want := []string{fmt.Sprintf("%s:4:3: error: call to undefined procedure \"missing%d\"", mf.Name, f)}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s diagnostics:\n%s\nwant:\n%s", mf.Name, strings.Join(got, "\n"), want[0])
		}
	}
	if len(g.Unresolved) != nFiles {
		t.Errorf("Unresolved has %d entries, want %d", len(g.Unresolved), nFiles)
	}
}

// BenchmarkLinkWide links a module of 4 files with n procedures each,
// every one calling a procedure of the next file; ns/op divided by n
// should stay flat as n grows.
func BenchmarkLinkWide(b *testing.B) {
	for _, n := range []int{500, 2000} {
		var files [][2]string
		for f := 0; f < 4; f++ {
			var sb strings.Builder
			for i := 0; i < n; i++ {
				fmt.Fprintf(&sb, "proc p%d_%d() {\n  p%d_%d();\n}\n", f, i, (f+1)%4, i)
			}
			files = append(files, [2]string{fmt.Sprintf("f%d.chpl", f), sb.String()})
		}
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if g := link(b, files...); len(g.Unresolved) != 0 {
					b.Fatalf("%d unresolved calls", len(g.Unresolved))
				}
			}
		})
	}
}
