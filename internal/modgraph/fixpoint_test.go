package modgraph

import (
	"fmt"
	"slices"
	"testing"

	"uafcheck/internal/ast"
	"uafcheck/internal/ir"
	"uafcheck/internal/parser"
	"uafcheck/internal/progen"
	"uafcheck/internal/source"
)

// resolve parses and resolves named sources in order, without
// summaries, failing the test on any frontend error.
func resolve(t *testing.T, files ...[2]string) *Graph {
	t.Helper()
	var mfs []*File
	for _, f := range files {
		sf := source.NewFile(f[0], f[1])
		diags := &source.Diagnostics{}
		mod := parser.Parse(sf, diags)
		mfs = append(mfs, &File{Name: f[0], Src: sf, Mod: mod, Diags: diags})
	}
	g := Resolve(mfs)
	for _, f := range g.Files {
		if f.Diags.HasErrors() {
			t.Fatalf("%s: frontend errors:\n%s", f.Name, f.Diags)
		}
	}
	return g
}

// roundRobin is the reference fixpoint: every procedure lowered in file
// order, pass after pass over the whole module, until a pass changes no
// summary. It keeps its own tables, so it runs beside Summarize on one
// resolved graph.
func roundRobin(g *Graph) (map[*ast.ProcDecl][]ir.ParamEffects, map[*ast.ProcDecl]bool) {
	sums := make(map[*ast.ProcDecl][]ir.ParamEffects)
	hasTask := make(map[*ast.ProcDecl]bool)
	for _, f := range g.Files {
		for _, p := range f.Mod.Procs {
			sums[p] = make([]ir.ParamEffects, len(p.Params))
		}
	}
	maxIter := 2
	for _, effs := range sums {
		maxIter += 4 * len(effs)
	}
	low := ir.LowerOptions{Effects: func(c *ast.ProcDecl) []ir.ParamEffects { return sums[c] }}
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for _, f := range g.Files {
			for _, p := range f.Mod.Procs {
				prog := ir.LowerWith(f.Info, p, &source.Diagnostics{}, low)
				hasTask[p] = blockHasBegin(prog.Root)
				ns := extractEffects(prog)
				if !slices.Equal(ns, sums[p]) {
					sums[p] = ns
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return sums, hasTask
}

// summarizeLikeRoundRobin runs Summarize and requires the same
// Summaries and HasTask as the reference fixpoint, procedure by
// procedure.
func summarizeLikeRoundRobin(t *testing.T, g *Graph, label string) {
	t.Helper()
	wantSums, wantTask := roundRobin(g)
	g.Summarize(nil)
	if len(g.Summaries) != len(wantSums) || len(g.HasTask) != len(wantTask) {
		t.Fatalf("%s: %d summaries and %d HasTask entries, want %d and %d",
			label, len(g.Summaries), len(g.HasTask), len(wantSums), len(wantTask))
	}
	for p, want := range wantSums {
		if got := g.Summaries[p]; !slices.Equal(got, want) {
			t.Errorf("%s: %s summary = %+v, want %+v", label, p.Name.Name, got, want)
		}
		if got, want := g.HasTask[p], wantTask[p]; got != want {
			t.Errorf("%s: %s HasTask = %t, want %t", label, p.Name.Name, got, want)
		}
	}
}

// TestCalleeFirstMatchesRoundRobinOnProgen: on generated modules the
// callee-first fixpoint reaches the reference fixpoint, and because
// their call graphs are acyclic it lowers every procedure exactly once.
func TestCalleeFirstMatchesRoundRobinOnProgen(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		var files [][2]string
		for _, f := range progen.GenerateModule(seed, progen.ModuleOptions{Files: 12, Procs: 8}) {
			files = append(files, [2]string{f.Name, f.Src})
		}
		g := resolve(t, files...)
		label := fmt.Sprintf("seed %d", seed)
		summarizeLikeRoundRobin(t, g, label)
		if n := len(g.DeclFile); g.lowerings != n {
			t.Errorf("%s: %d lowerings for %d acyclic procedures, want one each", label, g.lowerings, n)
		}
	}
}

// TestCalleeFirstMatchesRoundRobinOnCycles: recursive components, which
// iterate, reach the reference fixpoint too, and a caller outside a
// cycle sees the cycle's converged summary.
func TestCalleeFirstMatchesRoundRobinOnCycles(t *testing.T) {
	cases := []struct {
		name  string
		files [][2]string
		// escapes names a procedure whose first formal must end up
		// with an escaping write, so the case cannot pass vacuously.
		escapes string
	}{
		{"self-recursion", [][2]string{
			{"r.chpl", "proc r(ref v: int) {\n  if (v > 0) {\n    r(v);\n  }\n  begin with (ref v) {\n    v = 1;\n  }\n}\n" +
				"proc caller(ref u: int) {\n  r(u);\n}\n"},
		}, "caller"},
		{"mutual recursion", [][2]string{
			{"a.chpl", "proc a(ref x: int) {\n  b(x);\n}\n"},
			{"b.chpl", "proc b(ref y: int) {\n  if (y > 0) {\n    a(y);\n  }\n  y = 1;\n}\n"},
		}, ""},
		{"3-cycle feeding an acyclic caller", [][2]string{
			{"main.chpl", "proc main() {\n  var w: int = 0;\n  top(w);\n}\n" +
				"proc top(ref t: int) {\n  x(t);\n}\n"},
			{"x.chpl", "proc x(ref v: int) {\n  y(v);\n}\n"},
			{"y.chpl", "proc y(ref v: int) {\n  if (v > 1) {\n    z(v);\n  }\n}\n"},
			{"z.chpl", "proc z(ref v: int) {\n  if (v > 2) {\n    x(v);\n  }\n  begin with (ref v) {\n    v = v + 1;\n  }\n}\n"},
		}, "top"},
	}
	for _, tc := range cases {
		g := resolve(t, tc.files...)
		summarizeLikeRoundRobin(t, g, tc.name)
		if tc.escapes == "" {
			continue
		}
		for p := range g.Summaries {
			if p.Name.Name == tc.escapes && !g.Summaries[p][0].EscWrite {
				t.Errorf("%s: %s summary = %+v, want an escaping write", tc.name, p.Name.Name, g.Summaries[p][0])
			}
		}
	}
}
