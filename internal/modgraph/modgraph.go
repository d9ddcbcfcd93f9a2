// Package modgraph links the parsed files of one module into a
// cross-file call graph and computes per-procedure summaries: the
// concurrency events and outer-variable effects a call exposes at its
// boundary, projected onto the callee's by-ref formals.
//
// A summary records, per by-ref formal, whether the callee
// (transitively, through further module-level calls) reads or writes
// it from the calling task (Direct*) or from a fire-and-forget task
// that may outlive the call (Esc*). Summaries are computed bottom-up
// over the call graph's strongly connected components, callees first:
// a procedure outside a recursive component is lowered exactly once,
// against callee summaries that have already converged, and only a
// recursive component iterates, so mutual recursion between top-level
// procedures converges instead of hitting a recursion cutoff. The ir
// lowering splices each callee's summary in right after the opaque
// Call instruction, which makes the composition rules fall out of the
// existing CCFG semantics: effects spliced inside a sync region are
// contained, effects spliced inside a begin escape with it, and loop
// subsumption (§IV-A) applies unchanged.
package modgraph

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"uafcheck/internal/ast"
	"uafcheck/internal/ir"
	"uafcheck/internal/source"
	"uafcheck/internal/sym"
)

// File is one member of the module under analysis. Mod and Src come
// from the parser; Info is filled in by Link.
type File struct {
	Name  string
	Src   *source.File
	Mod   *ast.Module
	Diags *source.Diagnostics
	Info  *sym.Info
}

// Unresolved is a call that named no procedure in any file of the
// module.
type Unresolved struct {
	File string
	Name string
	Sp   source.Span
}

// Graph is the linked module: every file resolved against a shared
// linker scope, plus the converged summary table.
type Graph struct {
	Files  []*File
	Linker *sym.Scope
	// DeclFile maps every top-level procedure declaration to the index
	// of its defining file. Duplicate names across files keep distinct
	// entries — identity is the declaration, not the name.
	DeclFile map[*ast.ProcDecl]int
	// Summaries holds the fixpoint boundary effects per top-level
	// procedure, indexed by parameter position.
	Summaries map[*ast.ProcDecl][]ir.ParamEffects
	// HasTask marks procedures whose lowered body — under the converged
	// summary table — contains a task: their own begins, or a spliced
	// escape task inherited from a callee.
	HasTask map[*ast.ProcDecl]bool
	// Unresolved lists calls that resolve to no procedure module-wide,
	// in file order.
	Unresolved []Unresolved

	// callees holds each top-level procedure's DirectCallees list and
	// fingerprints its SummaryFingerprint, both filled by Summarize.
	callees      map[*ast.ProcDecl][]*ast.ProcDecl
	fingerprints map[*ast.ProcDecl]string
	// lowerings counts the fixpoint's lowerings.
	lowerings int
}

// Link resolves the module and computes its summaries: Resolve, then
// Summarize.
func Link(files []*File) *Graph {
	g := Resolve(files)
	g.Summarize()
	return g
}

// Resolve resolves every file against a shared linker scope holding all
// files' top-level procedures (the first declaration of a name wins, in
// file order; a file's own declarations shadow imports). Per-file
// resolution diagnostics go to each File's Diags. The returned graph has
// no summaries until Summarize runs.
func Resolve(files []*File) *Graph {
	g := &Graph{
		Files:    files,
		Linker:   sym.NewLinkerScope(),
		DeclFile: make(map[*ast.ProcDecl]int),
	}
	for i, f := range files {
		for _, p := range f.Mod.Procs {
			sym.DeclareExtern(g.Linker, p)
			g.DeclFile[p] = i
		}
	}
	for _, f := range files {
		if f.Diags == nil {
			f.Diags = &source.Diagnostics{}
		}
		f.Info = sym.ResolveWith(f.Mod, f.Diags, g.Linker)
		for _, id := range f.Info.UnresolvedCalls {
			g.Unresolved = append(g.Unresolved,
				Unresolved{File: f.Name, Name: id.Name, Sp: id.Sp})
		}
	}
	return g
}

// Summarize builds the call graph of the resolved module, runs the
// summary fixpoint and renders every procedure's SummaryFingerprint.
// It runs once per graph, after Resolve; afterwards the graph is
// read-only and safe for concurrent readers.
func (g *Graph) Summarize() {
	n := len(g.DeclFile)
	g.Summaries = make(map[*ast.ProcDecl][]ir.ParamEffects, n)
	g.HasTask = make(map[*ast.ProcDecl]bool, n)
	g.callees = make(map[*ast.ProcDecl][]*ast.ProcDecl, n)
	for _, f := range g.Files {
		for _, p := range f.Mod.Procs {
			g.Summaries[p] = make([]ir.ParamEffects, len(p.Params))
			g.callees[p] = g.directCallees(f, p)
		}
	}
	for _, comp := range g.components() {
		g.solve(comp)
	}
	g.fingerprints = make(map[*ast.ProcDecl]string, n)
	for p := range g.DeclFile {
		g.fingerprints[p] = g.fingerprint(p)
	}
}

// Effects is the lowering hook: it returns the current summary of a
// callee, or nil (fully opaque call) for procedures outside the graph.
func (g *Graph) Effects(callee *ast.ProcDecl) []ir.ParamEffects {
	return g.Summaries[callee]
}

// NeedsAnalysis reports whether a procedure is a module-mode analysis
// root: it contains begin statements itself, or its lowered body under
// the converged summaries contains a task (e.g. an escaping task
// spliced from a callee that outlives the call).
func (g *Graph) NeedsAnalysis(p *ast.ProcDecl) bool {
	return ast.HasBegin(p) || g.HasTask[p]
}

// SummaryFingerprint renders a procedure's identity and converged
// summary compactly: "file:name|dr dw er ew|..." — the component the
// incremental layer folds into each caller unit's memo key, so an edit
// to a callee invalidates exactly the units whose view of it changed.
// Summarize renders it once per procedure; "" for procedures outside
// the graph.
func (g *Graph) SummaryFingerprint(p *ast.ProcDecl) string {
	return g.fingerprints[p]
}

func (g *Graph) fingerprint(p *ast.ProcDecl) string {
	var b strings.Builder
	b.WriteString(g.Files[g.DeclFile[p]].Name)
	b.WriteByte(':')
	b.WriteString(p.Name.Name)
	for _, e := range g.Summaries[p] {
		for i, bit := range [4]bool{e.DirectRead, e.DirectWrite, e.EscRead, e.EscWrite} {
			if i == 0 {
				b.WriteByte('|')
			} else {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatBool(bit))
		}
	}
	return b.String()
}

// DirectCallees returns the distinct top-level procedures called
// (possibly through nested procedures) from within p, resolved against
// p's file f. Sorted by defining file then name, so the slice is a
// stable memo-key component. For the graph's own procedures it is the
// list Summarize stored; callers must not modify it.
func (g *Graph) DirectCallees(f *File, p *ast.ProcDecl) []*ast.ProcDecl {
	if cs, ok := g.callees[p]; ok {
		return cs
	}
	return g.directCallees(f, p)
}

func (g *Graph) directCallees(f *File, p *ast.ProcDecl) []*ast.ProcDecl {
	seen := make(map[*ast.ProcDecl]bool)
	var out []*ast.ProcDecl
	ast.Walk(p, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		s := f.Info.Uses[call.Fun]
		if s == nil || s.Kind != sym.KindProc || s.Proc == nil ||
			s.Scope.Kind != sym.ScopeModule {
			return true
		}
		if _, top := g.DeclFile[s.Proc]; top && !seen[s.Proc] {
			seen[s.Proc] = true
			out = append(out, s.Proc)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		fi, fj := g.DeclFile[out[i]], g.DeclFile[out[j]]
		if fi != fj {
			return fi < fj
		}
		return out[i].Name.Name < out[j].Name.Name
	})
	return out
}

// components returns the strongly connected components of the call
// graph callees-first (Tarjan's algorithm, rooted in file order), each
// component's members in file order. Solving them in this order finds
// every callee outside a component already converged.
func (g *Graph) components() [][]*ast.ProcDecl {
	var procs []*ast.ProcDecl
	id := make(map[*ast.ProcDecl]int, len(g.callees))
	for _, f := range g.Files {
		for _, p := range f.Mod.Procs {
			id[p] = len(procs)
			procs = append(procs, p)
		}
	}
	index := make([]int, len(procs)) // DFS visit order + 1; 0 = unvisited
	low := make([]int, len(procs))
	onStack := make([]bool, len(procs))
	var stack []int
	var out [][]*ast.ProcDecl
	next := 0
	var visit func(v int)
	visit = func(v int) {
		next++
		index[v], low[v] = next, next
		stack = append(stack, v)
		onStack[v] = true
		for _, c := range g.callees[procs[v]] {
			w := id[c]
			switch {
			case index[w] == 0:
				visit(w)
				low[v] = min(low[v], low[w])
			case onStack[w]:
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] != index[v] {
			return
		}
		i := len(stack) - 1
		for stack[i] != v {
			i--
		}
		members := append([]int(nil), stack[i:]...)
		stack = stack[:i]
		sort.Ints(members)
		comp := make([]*ast.ProcDecl, len(members))
		for j, m := range members {
			onStack[m] = false
			comp[j] = procs[m]
		}
		out = append(out, comp)
	}
	for v := range procs {
		if index[v] == 0 {
			visit(v)
		}
	}
	return out
}

// solve computes the summaries of one call-graph component whose
// callees outside it have converged. A procedure that is not recursive
// is lowered once. A recursive component iterates its members in file
// order until a pass changes nothing: effects live in a finite monotone
// boolean lattice (4 bits per by-ref formal), so it converges to the
// least fixpoint; the bound of 2 + 4 per by-ref formal is a safety net
// that also keeps a hypothetical oscillation deterministic.
func (g *Graph) solve(comp []*ast.ProcDecl) {
	if len(comp) == 1 && !slices.Contains(g.callees[comp[0]], comp[0]) {
		g.lower(comp[0])
		return
	}
	maxIter := 2
	for _, p := range comp {
		for _, prm := range p.Params {
			if prm.ByRef {
				maxIter += 4
			}
		}
	}
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for _, p := range comp {
			if g.lower(p) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// lower lowers p under the current summary table, records whether its
// body holds a task, and stores its new summary; it reports whether the
// summary changed.
func (g *Graph) lower(p *ast.ProcDecl) bool {
	g.lowerings++
	info := g.Files[g.DeclFile[p]].Info
	prog := ir.LowerWith(info, p, &source.Diagnostics{}, ir.LowerOptions{Effects: g.Effects})
	g.HasTask[p] = blockHasBegin(prog.Root)
	ns := extractEffects(prog)
	if slices.Equal(ns, g.Summaries[p]) {
		return false
	}
	g.Summaries[p] = ns
	return true
}

// extractEffects walks a lowered procedure and projects its accesses
// onto the by-ref formals. esc is sticky: once inside a begin that no
// enclosing sync region of this procedure contains, everything below
// may run after the procedure returns. A begin inside a sync region is
// contained (the region waits transitively, so nested begins inherit
// containment through the unchanged syncDepth).
func extractEffects(prog *ir.Program) []ir.ParamEffects {
	idx := make(map[*sym.Symbol]int)
	for i, prm := range prog.Proc.Params {
		if s := prog.Info.Uses[prm.Name]; s != nil && s.ByRef {
			idx[s] = i
		}
	}
	out := make([]ir.ParamEffects, len(prog.Proc.Params))
	if len(idx) == 0 {
		return out
	}
	var walk func(b *ir.Block, esc bool, syncDepth int)
	walk = func(b *ir.Block, esc bool, syncDepth int) {
		for _, in := range b.Instrs {
			switch x := in.(type) {
			case *ir.Access:
				i, ok := idx[x.Sym]
				if !ok {
					continue
				}
				e := &out[i]
				switch {
				case esc && x.Write:
					e.EscWrite = true
				case esc:
					e.EscRead = true
				case x.Write:
					e.DirectWrite = true
				default:
					e.DirectRead = true
				}
			case *ir.Begin:
				walk(x.Body, esc || syncDepth == 0, syncDepth)
			case *ir.SyncRegion:
				walk(x.Body, esc, syncDepth+1)
			case *ir.Region:
				walk(x.Body, esc, syncDepth)
			case *ir.Loop:
				walk(x.Body, esc, syncDepth)
			case *ir.If:
				walk(x.Then, esc, syncDepth)
				if x.Else != nil {
					walk(x.Else, esc, syncDepth)
				}
			}
		}
	}
	walk(prog.Root, false, 0)
	return out
}

func blockHasBegin(b *ir.Block) bool {
	for _, in := range b.Instrs {
		switch x := in.(type) {
		case *ir.Begin:
			return true
		case *ir.SyncRegion:
			if blockHasBegin(x.Body) {
				return true
			}
		case *ir.Region:
			if blockHasBegin(x.Body) {
				return true
			}
		case *ir.Loop:
			if blockHasBegin(x.Body) {
				return true
			}
		case *ir.If:
			if blockHasBegin(x.Then) {
				return true
			}
			if x.Else != nil && blockHasBegin(x.Else) {
				return true
			}
		}
	}
	return false
}
