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
//
// A Memo carries summaries from one Summarize to the next, so a
// re-analysis after an edit lowers only the procedures whose inputs
// changed.
package modgraph

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

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
	// fingerprints its SummaryFingerprint, both filled by Summarize; refs
	// holds the ModuleRefs a memo run rendered.
	callees      map[*ast.ProcDecl][]*ast.ProcDecl
	fingerprints map[*ast.ProcDecl]string
	refs         map[*ast.ProcDecl]string
	// lowerings counts the fixpoint's lowerings.
	lowerings int
}

// Link resolves the module and computes its summaries: Resolve, then
// Summarize without a memo.
func Link(files []*File) *Graph {
	g := Resolve(files)
	g.Summarize(nil)
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
// With a memo, a procedure outside any recursive component whose inputs
// match the memo's entry takes the stored summary instead of being
// lowered, and the memo afterwards holds this module's entries. It runs
// once per graph, after Resolve; afterwards the graph is read-only and
// safe for concurrent readers.
func (g *Graph) Summarize(memo *Memo) {
	n := len(g.DeclFile)
	g.Summaries = make(map[*ast.ProcDecl][]ir.ParamEffects, n)
	g.HasTask = make(map[*ast.ProcDecl]bool, n)
	g.callees = make(map[*ast.ProcDecl][]*ast.ProcDecl, n)
	for _, f := range g.Files {
		for _, p := range f.Mod.Procs {
			g.callees[p] = g.directCallees(f, p)
		}
	}
	var s solver
	if memo != nil {
		s.prev = memo.load()
		s.next = make(map[memoSlot]memoEntry, n)
		g.refs = make(map[*ast.ProcDecl]string, n)
	}
	g.fingerprints = make(map[*ast.ProcDecl]string, n)
	for _, comp := range g.components() {
		g.solve(comp, &s)
		// Every member has converged: later components key their memo
		// entries on these fingerprints.
		for _, p := range comp {
			g.fingerprints[p] = g.fingerprint(p)
		}
	}
	if memo != nil {
		memo.store(s.next)
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

// solver holds one Summarize's view of its memo: prev is the memo's
// entries as the run found them, next collects this module's. Both are
// nil without a memo.
type solver struct {
	prev, next map[memoSlot]memoEntry
}

// solve computes the summaries of one call-graph component whose
// callees outside it have converged. A procedure that is not recursive
// is lowered once, or not at all when its memo entry's inputs still
// match. A recursive component iterates its members in file order until
// a pass changes nothing: effects live in a finite monotone boolean
// lattice (4 bits per by-ref formal), so it converges to the least
// fixpoint; the bound of 2 + 4 per by-ref formal is a safety net that
// also keeps a hypothetical oscillation deterministic.
func (g *Graph) solve(comp []*ast.ProcDecl, s *solver) {
	if len(comp) == 1 && !slices.Contains(g.callees[comp[0]], comp[0]) {
		p := comp[0]
		if s.next == nil {
			g.lower(p)
			return
		}
		slot, e := g.memoInputs(p)
		if old, ok := s.prev[slot]; ok && old.sameInputs(e) {
			g.Summaries[p], g.HasTask[p] = old.summary, old.hasTask
		} else {
			g.lower(p)
		}
		// The entry is rebuilt from this run's inputs even on a hit, so
		// it never keeps an older snapshot's source alive.
		e.summary, e.hasTask = g.Summaries[p], g.HasTask[p]
		s.next[slot] = e
		return
	}
	maxIter := 2
	for _, p := range comp {
		g.Summaries[p] = make([]ir.ParamEffects, len(p.Params))
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
// summary changed from the one stored before.
func (g *Graph) lower(p *ast.ProcDecl) bool {
	g.lowerings++
	info := g.Files[g.DeclFile[p]].Info
	prog := ir.LowerWith(info, p, &source.Diagnostics{}, ir.LowerOptions{Effects: g.Effects})
	g.HasTask[p] = blockHasBegin(prog.Root)
	ns := extractEffects(prog)
	changed := !slices.Equal(ns, g.Summaries[p])
	g.Summaries[p] = ns
	return changed
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

// Memo keeps, per (file, procedure), the summary a non-recursive
// procedure had in the last module summarized through it, with the
// inputs that summary was lowered from: the procedure's text, how its
// identifiers bind at module level (ModuleRefs), and each direct
// callee's SummaryFingerprint and formal intents (lowering reads the
// intents to find a call's by-ref actuals). Lowering reads nothing
// else, so matching inputs give the same summary and HasTask bit; none
// of them is a position, so a procedure that only moved within its
// file still matches. Each Summarize replaces the memo's contents with
// its own module's entries, which bounds it by the module's size. It
// is safe for concurrent use: runs over different modules each replace
// it, and an entry of one serves another only where the inputs match.
type Memo struct {
	mu   sync.Mutex
	last map[memoSlot]memoEntry
}

type memoSlot struct{ file, proc string }

type memoEntry struct {
	text, refs, callees string
	// summary is shared with the graphs that used it, all read-only.
	summary []ir.ParamEffects
	hasTask bool
}

func (e memoEntry) sameInputs(o memoEntry) bool {
	return e.text == o.text && e.refs == o.refs && e.callees == o.callees
}

// Len returns the number of procedures the memo holds.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.last)
}

// load returns the memo's current entries. A published map is never
// written again, so the caller reads it without the lock.
func (m *Memo) load() map[memoSlot]memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last
}

func (m *Memo) store(entries map[memoSlot]memoEntry) {
	m.mu.Lock()
	m.last = entries
	m.mu.Unlock()
}

// memoInputs renders the memo slot and inputs of p, whose callees have
// all converged.
func (g *Graph) memoInputs(p *ast.ProcDecl) (memoSlot, memoEntry) {
	f := g.Files[g.DeclFile[p]]
	e := memoEntry{refs: ModuleRefs(p, f.Info)}
	g.refs[p] = e.refs
	if sp := p.Sp; sp.IsValid() && int(sp.End) <= len(f.Src.Content) {
		e.text = f.Src.Content[sp.Start:sp.End]
	}
	if cs := g.callees[p]; len(cs) > 0 {
		var b strings.Builder
		for _, c := range cs {
			b.WriteString(g.fingerprints[c])
			b.WriteByte('|')
			for _, prm := range c.Params {
				if prm.ByRef {
					b.WriteByte('r')
				} else {
					b.WriteByte('v')
				}
			}
			b.WriteByte('\n')
		}
		e.callees = b.String()
	}
	return memoSlot{f.Name, p.Name.Name}, e
}

// Refs returns ModuleRefs of one of the graph's procedures, reusing the
// rendering of a memo run.
func (g *Graph) Refs(p *ast.ProcDecl) string {
	if r, ok := g.refs[p]; ok {
		return r
	}
	return ModuleRefs(p, g.Files[g.DeclFile[p]].Info)
}

// ModuleRefs canonically encodes how a procedure's identifiers resolve
// outside it: every identifier bound to a module-scope symbol (config
// const or top-level procedure) or left unresolved. Renaming or
// re-kinding a module-level binding another procedure introduced — or
// removing one so an identifier falls back to unresolved/builtin —
// changes this string. With the procedure's text it determines the
// procedure's resolution, so memo keys over the procedure carry it.
func ModuleRefs(proc *ast.ProcDecl, info *sym.Info) string {
	var refs []string
	ast.Walk(proc, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		s, used := info.Uses[id]
		switch {
		case !used:
			// Declaration occurrences are covered by the text.
		case s == nil:
			refs = append(refs, "?"+id.Name)
		case s.Scope != nil && s.Scope.Kind == sym.ScopeModule:
			refs = append(refs, s.Name+":"+strconv.Itoa(int(s.Kind))+":"+
				strconv.Itoa(int(s.Type.Qual))+":"+strconv.FormatBool(s.ByRef))
		}
		return true
	})
	sort.Strings(refs)
	return strings.Join(slices.Compact(refs), "\n")
}
