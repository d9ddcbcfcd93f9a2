// Package repair synthesizes synchronization fixes for the warnings the
// analysis reports — the §VII future-work direction "the analysis can be
// extended to optimize the amount and position of synchronization points
// required".
//
// For each warned (procedure, task) group the engine tries candidate
// patches in order of decreasing parallelism:
//
//  1. token chain — declare a fresh sync variable next to the endangered
//     variable, signal it as the task's last statement, and wait on it at
//     the end of the variable's scope. This is the paper's preferred
//     point-to-point idiom (Figure 1's doneA$/doneB$ pattern) and keeps
//     the parent running concurrently with the task.
//  2. sync-block wrap of the warned begin — an X10/HJ-style finish
//     around the task itself.
//  3. sync-block wrap of the task chain's first begin — the maximally
//     restrictive fence that the structural protection rule always
//     proves safe.
//
// Every candidate is VERIFIED by re-running the full analysis on the
// patched source: it is accepted only if the warning count strictly
// decreases and no new potential deadlock appears (a token chain for a
// conditionally-spawned task would deadlock the parent — the verifier
// rejects it and the engine falls back to a fence). The result can
// additionally be validated dynamically with the schedule oracle.
package repair

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"uafcheck/internal/analysis"
	"uafcheck/internal/ast"
	"uafcheck/internal/parser"
	"uafcheck/internal/pps"
	"uafcheck/internal/runtime"
	"uafcheck/internal/source"
)

// ErrDegraded is returned (wrapped) when the baseline analysis or a
// candidate's verification re-analysis did not run to completion —
// state budget, deadline, cancellation, or a recovered panic — or when
// the context cut a schedule check short. A
// degraded report's warnings are a conservative superset of the true
// set (or, after a panic, an incomplete subset), so "the warning count
// decreased" proves nothing against it: accepting a patch on that
// evidence could bless a fix that repairs nothing. Callers should
// re-run with a larger budget or no deadline rather than retry as-is.
var ErrDegraded = errors.New("repair: analysis degraded, fix verification is unreliable")

// ErrParse is returned (wrapped) when the input source fails the
// frontend: there is nothing to repair because there is nothing to
// analyze. The public layer translates it to uafcheck.ErrParse.
var ErrParse = errors.New("repair: source has frontend errors")

// Strategy names an applied patch kind.
type Strategy string

// Strategies, in preference order.
const (
	StrategyTokenChain   Strategy = "token-chain"
	StrategySyncWrap     Strategy = "sync-wrap"
	StrategySyncWrapRoot Strategy = "sync-wrap-chain"
)

// Step records one accepted patch.
type Step struct {
	Strategy Strategy
	Proc     string
	Task     string
	// Token is the introduced sync variable for token-chain steps.
	Token string
	// Patched is the full source after this step was applied — each
	// step's patch is the line diff from the previous step's Patched
	// (or the original input for the first step). The public API
	// derives per-patch unified diffs from these snapshots.
	Patched string
	// Before / After are the verified warning counts around this step:
	// every accepted step has After < Before (the verifier rejects
	// anything else), so the pair is the step's remaining-warning
	// delta.
	Before int
	After  int
}

// Result is the outcome of a repair run.
type Result struct {
	// Fixed is the repaired source (equal to the input when nothing was
	// repairable).
	Fixed string
	// Steps lists the accepted patches in application order.
	Steps []Step
	// InitialWarnings / RemainingWarnings count before and after.
	InitialWarnings   int
	RemainingWarnings int
	// Remaining holds the warnings still present in Fixed (positions
	// refer to the patched source). Empty when Clean().
	Remaining []analysis.Warning
	// Rejected notes candidates the verifier refused and why.
	Rejected []string
}

// Clean reports whether the repaired program analyzes without warnings.
func (r *Result) Clean() bool { return r.RemainingWarnings == 0 }

// maxRounds bounds the repair loop; each round fixes one (proc, task)
// group, so this is also the maximum number of patches.
const maxRounds = 32

// dynBudget bounds the dynamic-verification schedule exploration per
// candidate.
const dynBudget = 4000

// Repair attempts to fix every warning in the source, verifying each
// candidate patch by re-analysis under opts AND by bounded schedule
// exploration under opts.Ctx: a patch that the static model accepts but
// that introduces a fence-induced deadlock (invisible to the PPS
// abstraction) is rejected dynamically.
func Repair(filename, src string, opts analysis.Options) (*Result, error) {
	res := &Result{Fixed: src}
	cur := src
	first := analysis.AnalyzeSource(filename, cur, opts)
	if first.Diags.HasErrors() {
		return nil, fmt.Errorf("%w:\n%s", ErrParse, first.Diags)
	}
	if stop := first.Degraded(); stop != pps.StopNone {
		return nil, fmt.Errorf("%w (baseline analysis stopped: %s)", ErrDegraded, stop)
	}
	warnings := first.Warnings()
	res.InitialWarnings = len(warnings)
	res.RemainingWarnings = len(warnings)
	res.Remaining = warnings

	for round := 0; round < maxRounds && len(warnings) > 0; round++ {
		w := warnings[0]
		patched, step, rejected, err := fixGroup(filename, cur, w, len(warnings), opts)
		res.Rejected = append(res.Rejected, rejected...)
		if err != nil {
			return nil, err
		}
		if patched == "" {
			// No candidate verified for this group; stop rather than
			// loop on the same warning.
			break
		}
		cur = patched
		after := analysis.AnalyzeSource(filename, cur, opts)
		if stop := after.Degraded(); stop != pps.StopNone {
			return nil, fmt.Errorf("%w (post-patch analysis stopped: %s)", ErrDegraded, stop)
		}
		step.Patched = cur
		step.Before = len(warnings)
		warnings = after.Warnings()
		step.After = len(warnings)
		res.Steps = append(res.Steps, step)
		res.RemainingWarnings = len(warnings)
		res.Remaining = warnings
	}
	res.Fixed = cur
	return res, nil
}

// dynState captures the dynamically observable failures of one proc:
// the set of use-after-free site keys and whether any schedule deadlocks.
type dynState struct {
	uaf      map[string]bool
	deadlock bool
	valid    bool
}

// exploreDyn is one schedule check: the exploration of proc under ctx
// (nil means no bound). A check that ctx cut short is an ErrDegraded
// error, as a degraded verification analysis is: its partial schedule
// set can neither confirm nor refute a candidate, and every later check
// under the same ctx would be cut short too.
func exploreDyn(ctx context.Context, src, proc string) (dynState, error) {
	mod, info, diags := runtime.Load("dyn.chpl", src)
	if diags.HasErrors() {
		return dynState{}, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	er := runtime.Explore(ctx, mod, info, proc, dynBudget, -1)
	if er.Cancelled {
		return dynState{}, fmt.Errorf("%w (schedule check of %s stopped by the context)", ErrDegraded, proc)
	}
	st := dynState{uaf: make(map[string]bool), deadlock: er.Deadlocks > 0, valid: true}
	for _, ev := range er.UAF {
		// Key by (variable, task): patches shift line numbers (the
		// pretty-printer reflows), but task labels are stable.
		st.uaf[ev.Var+"@"+ev.Task] = true
	}
	return st, nil
}

// dynCheck compares the patched proc's dynamic behaviour against the
// unpatched baseline: the candidate is rejected when it introduces a NEW
// use-after-free site, keeps the site it claims to fix racy, or adds a
// deadlock the baseline did not have. Residual races from OTHER,
// not-yet-repaired warnings are tolerated — later rounds handle them.
func dynCheck(ctx context.Context, src, proc string, base dynState, w analysis.Warning) (string, bool, error) {
	st, err := exploreDyn(ctx, src, proc)
	switch {
	case err != nil:
		return "", false, err
	case !st.valid:
		return "patched source no longer parses", false, nil
	case st.uaf[w.Var+"@"+w.Task]:
		return "patched program still races at the warned site", false, nil
	}
	if base.valid {
		for k := range st.uaf {
			if !base.uaf[k] {
				return "patch introduces a new use-after-free at " + k, false, nil
			}
		}
		if st.deadlock && !base.deadlock {
			return "patch introduces a deadlock under some schedule", false, nil
		}
	} else if st.deadlock || len(st.uaf) > 0 {
		return "patched program fails dynamically", false, nil
	}
	return "", true, nil
}

// fixGroup tries the candidate strategies for the (proc, task) of warning
// w and returns the first verified patch.
func fixGroup(filename, cur string, w analysis.Warning, before int,
	opts analysis.Options) (string, Step, []string, error) {
	base, err := exploreDyn(opts.Ctx, cur, w.Proc)
	if err != nil {
		return "", Step{}, nil, err
	}
	var rejected []string
	type candidate struct {
		strategy Strategy
		apply    func(mod *ast.Module) (string, bool)
	}
	token := ""
	cands := []candidate{
		{StrategyTokenChain, func(mod *ast.Module) (string, bool) {
			var ok bool
			token, ok = applyTokenChain(mod, w)
			return token, ok
		}},
		{StrategySyncWrap, func(mod *ast.Module) (string, bool) {
			return "", applySyncWrap(mod, w.Proc, w.Task)
		}},
		{StrategySyncWrapRoot, func(mod *ast.Module) (string, bool) {
			return "", applySyncWrapChainRoot(mod, w)
		}},
	}
	for _, c := range cands {
		diags := &source.Diagnostics{}
		mod := parser.ParseSource(filename, cur, diags)
		if diags.HasErrors() {
			return "", Step{}, rejected, nil
		}
		tok, ok := c.apply(mod)
		if !ok {
			continue
		}
		patched := ast.Print(mod)
		reason, verified, err := verify(filename, patched, before, opts)
		if err != nil {
			// The verification analysis itself degraded: its warning set
			// is a conservative superset (or, post-panic, incomplete), so
			// NO candidate can be honestly accepted or rejected — abort
			// the repair instead of guessing.
			return "", Step{}, rejected, err
		}
		if verified {
			if reason, verified, err = dynCheck(opts.Ctx, patched, w.Proc, base, w); err != nil {
				return "", Step{}, rejected, err
			}
		}
		if verified {
			return patched, Step{Strategy: c.strategy, Proc: w.Proc, Task: w.Task, Token: tok}, rejected, nil
		}
		rejected = append(rejected,
			fmt.Sprintf("%s for %s/%s: %s", c.strategy, w.Proc, w.Task, reason))
	}
	return "", Step{}, rejected, nil
}

// verify re-analyzes the patched source: accepted iff the analysis ran
// to completion, the source still parses, the warning count strictly
// decreased, and no potential-deadlock note appeared. A degraded
// re-analysis is an error, not a rejection — its conservative-superset
// warning set can neither confirm nor refute the candidate.
func verify(filename, patched string, before int, opts analysis.Options) (string, bool, error) {
	res := analysis.AnalyzeSource(filename, patched, opts)
	if res.Diags.HasErrors() {
		return "patched source no longer parses", false, nil
	}
	if stop := res.Degraded(); stop != pps.StopNone {
		return "", false, fmt.Errorf("%w (candidate re-analysis stopped: %s)", ErrDegraded, stop)
	}
	after := len(res.Warnings())
	if after >= before {
		return fmt.Sprintf("warnings did not decrease (%d -> %d)", before, after), false, nil
	}
	for _, d := range res.Diags.All() {
		if d.Severity == source.Note && strings.Contains(d.Message, "potential deadlock") {
			return "patch introduces a potential deadlock", false, nil
		}
	}
	return "", true, nil
}

// ---------------------------------------------------------------- edits

// locator finds AST positions by walking with parent-block tracking.
type locator struct {
	mod *ast.Module
}

// findProc returns the named top-level procedure.
func (l *locator) findProc(name string) *ast.ProcDecl {
	return l.mod.Proc(name)
}

// findBegin locates the begin statement with the given task label inside
// proc, along with the block and index holding it.
func (l *locator) findBegin(proc *ast.ProcDecl, label string) (*ast.BeginStmt, *ast.BlockStmt, int) {
	var foundB *ast.BeginStmt
	var foundBlk *ast.BlockStmt
	foundIdx := -1
	var walkBlock func(b *ast.BlockStmt)
	walkStmt := func(s ast.Stmt, blk *ast.BlockStmt, i int) {}
	walkStmt = func(s ast.Stmt, blk *ast.BlockStmt, i int) {
		if foundB != nil {
			return
		}
		switch x := s.(type) {
		case *ast.BeginStmt:
			if x.Label == label {
				foundB, foundBlk, foundIdx = x, blk, i
				return
			}
			walkBlock(x.Body)
		case *ast.SyncStmt:
			walkBlock(x.Body)
		case *ast.IfStmt:
			walkBlock(x.Then)
			if x.Else != nil {
				walkBlock(x.Else)
			}
		case *ast.WhileStmt:
			walkBlock(x.Body)
		case *ast.ForStmt:
			walkBlock(x.Body)
		case *ast.BlockStmt:
			walkBlock(x)
		case *ast.ProcStmt:
			walkBlock(x.Proc.Body)
		}
	}
	walkBlock = func(b *ast.BlockStmt) {
		for i, s := range b.Stmts {
			walkStmt(s, b, i)
			if foundB != nil {
				return
			}
		}
	}
	walkBlock(proc.Body)
	return foundB, foundBlk, foundIdx
}

// findDeclBlock locates the block directly declaring the variable (by
// name and declaration line) inside proc, with the statement index.
func (l *locator) findDeclBlock(proc *ast.ProcDecl, name string, line int) (*ast.BlockStmt, int) {
	file := l.mod.File
	var blk *ast.BlockStmt
	idx := -1
	var walkBlock func(b *ast.BlockStmt)
	walkBlock = func(b *ast.BlockStmt) {
		for i, s := range b.Stmts {
			if blk != nil {
				return
			}
			switch x := s.(type) {
			case *ast.VarDecl:
				if x.Name.Name == name && file.Line(x.Name.Sp.Start) == line {
					blk, idx = b, i
					return
				}
			case *ast.BeginStmt:
				walkBlock(x.Body)
			case *ast.SyncStmt:
				walkBlock(x.Body)
			case *ast.IfStmt:
				walkBlock(x.Then)
				if x.Else != nil {
					walkBlock(x.Else)
				}
			case *ast.WhileStmt:
				walkBlock(x.Body)
			case *ast.ForStmt:
				walkBlock(x.Body)
			case *ast.BlockStmt:
				walkBlock(x)
			case *ast.ProcStmt:
				walkBlock(x.Proc.Body)
			}
		}
	}
	walkBlock(proc.Body)
	return blk, idx
}

// freshToken picks a sync-variable name unused in the module.
func freshToken(mod *ast.Module) string {
	used := map[string]bool{}
	ast.Walk(mod, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			used[id.Name] = true
		}
		return true
	})
	for i := 0; ; i++ {
		name := fmt.Sprintf("fix%d$", i)
		if !used[name] {
			return name
		}
	}
}

// applyTokenChain inserts the token-chain patch for warning w:
//
//	var fixN$: sync bool;      // next to the endangered variable
//	... begin { ...; fixN$ = true; }   // task signals last
//	fixN$;                      // scope end waits
//
// Protocol totality: when the begin sits under branches, every arm that
// skips the task must signal the token instead, otherwise the scope-end
// wait deadlocks on the skipping path. Begins under loops are not
// repairable this way (the analysis does not support them either).
func applyTokenChain(mod *ast.Module, w analysis.Warning) (string, bool) {
	l := &locator{mod: mod}
	proc := l.findProc(w.Proc)
	if proc == nil {
		return "", false
	}
	bg, _, _ := l.findBegin(proc, w.Task)
	if bg == nil {
		return "", false
	}
	ifs, underLoop := enclosingBranches(proc, bg)
	if underLoop {
		return "", false
	}
	declBlk, declIdx := l.findDeclBlock(proc, w.Var, w.DeclLine)
	if declBlk == nil {
		// Ref parameters have no VarDecl; anchor at the proc body head.
		declBlk, declIdx = proc.Body, -1
	}
	token := freshToken(mod)

	tokenDecl := &ast.VarDecl{
		Name: &ast.Ident{Name: token},
		Type: ast.Type{Qual: ast.QualSync, Kind: ast.TypeBool},
	}
	signal := func() ast.Stmt {
		return &ast.AssignStmt{
			Lhs: &ast.Ident{Name: token}, Op: "=", Rhs: &ast.BoolLit{Value: true},
		}
	}
	wait := &ast.ExprStmt{X: &ast.Ident{Name: token}}

	// Insert the declaration right after the endangered variable's
	// declaration (or at the top of the proc for ref params).
	declBlk.Stmts = insertAt(declBlk.Stmts, declIdx+1, tokenDecl)
	// Signal as the task's last statement.
	bg.Body.Stmts = append(bg.Body.Stmts, signal())
	// Keep the protocol total across skipping branch arms.
	for _, enc := range ifs {
		if enc.inThen {
			if enc.stmt.Else == nil {
				enc.stmt.Else = &ast.BlockStmt{}
			}
			enc.stmt.Else.Stmts = append(enc.stmt.Else.Stmts, signal())
		} else {
			enc.stmt.Then.Stmts = append(enc.stmt.Then.Stmts, signal())
		}
	}
	// Wait at the end of the declaring block — the variable's scope end.
	declBlk.Stmts = append(declBlk.Stmts, wait)
	return token, true
}

// enclosingIf records one branch on the path to the begin and which arm
// contains it.
type enclosingIf struct {
	stmt   *ast.IfStmt
	inThen bool
}

// enclosingBranches returns the if statements enclosing target (innermost
// last) and whether a loop encloses it.
func enclosingBranches(proc *ast.ProcDecl, target *ast.BeginStmt) ([]enclosingIf, bool) {
	var out []enclosingIf
	underLoop := false
	found := false
	var walkList func(list []ast.Stmt, ifs []enclosingIf, loops int)
	walkList = func(list []ast.Stmt, ifs []enclosingIf, loops int) {
		for _, s := range list {
			if found {
				return
			}
			switch x := s.(type) {
			case *ast.BeginStmt:
				if x == target {
					out = append([]enclosingIf(nil), ifs...)
					underLoop = loops > 0
					found = true
					return
				}
				walkList(x.Body.Stmts, ifs, loops)
			case *ast.SyncStmt:
				walkList(x.Body.Stmts, ifs, loops)
			case *ast.IfStmt:
				walkList(x.Then.Stmts, append(ifs, enclosingIf{x, true}), loops)
				if x.Else != nil {
					walkList(x.Else.Stmts, append(ifs, enclosingIf{x, false}), loops)
				}
			case *ast.WhileStmt:
				walkList(x.Body.Stmts, ifs, loops+1)
			case *ast.ForStmt:
				walkList(x.Body.Stmts, ifs, loops+1)
			case *ast.BlockStmt:
				walkList(x.Stmts, ifs, loops)
			case *ast.ProcStmt:
				walkList(x.Proc.Body.Stmts, nil, 0)
			}
		}
	}
	walkList(proc.Body.Stmts, nil, 0)
	return out, underLoop
}

// applySyncWrap replaces the warned begin statement with sync { begin }.
func applySyncWrap(mod *ast.Module, procName, label string) bool {
	l := &locator{mod: mod}
	proc := l.findProc(procName)
	if proc == nil {
		return false
	}
	bg, blk, idx := l.findBegin(proc, label)
	if bg == nil || blk == nil {
		return false
	}
	blk.Stmts[idx] = &ast.SyncStmt{Body: &ast.BlockStmt{Stmts: []ast.Stmt{bg}}}
	return true
}

// applySyncWrapChainRoot wraps the task chain's FIRST begin — the one the
// structural protection rule checks — in a sync block. The first begin is
// found by walking task labels outward: the chain root is the outermost
// begin (directly in the proc body path) that transitively contains the
// warned task.
func applySyncWrapChainRoot(mod *ast.Module, w analysis.Warning) bool {
	l := &locator{mod: mod}
	proc := l.findProc(w.Proc)
	if proc == nil {
		return false
	}
	target, _, _ := l.findBegin(proc, w.Task)
	if target == nil {
		return false
	}
	// Find the outermost begin containing target.
	var rootLabel string
	var walk func(s ast.Stmt, top string)
	found := false
	walk = func(s ast.Stmt, top string) {
		if found {
			return
		}
		switch x := s.(type) {
		case *ast.BeginStmt:
			t := top
			if t == "" {
				t = x.Label
			}
			if x.Label == w.Task {
				rootLabel = t
				found = true
				return
			}
			for _, inner := range x.Body.Stmts {
				walk(inner, t)
			}
		case *ast.SyncStmt:
			for _, inner := range x.Body.Stmts {
				walk(inner, top)
			}
		case *ast.IfStmt:
			for _, inner := range x.Then.Stmts {
				walk(inner, top)
			}
			if x.Else != nil {
				for _, inner := range x.Else.Stmts {
					walk(inner, top)
				}
			}
		case *ast.WhileStmt:
			for _, inner := range x.Body.Stmts {
				walk(inner, top)
			}
		case *ast.ForStmt:
			for _, inner := range x.Body.Stmts {
				walk(inner, top)
			}
		case *ast.BlockStmt:
			for _, inner := range x.Stmts {
				walk(inner, top)
			}
		case *ast.ProcStmt:
			for _, inner := range x.Proc.Body.Stmts {
				walk(inner, "")
			}
		}
	}
	for _, s := range proc.Body.Stmts {
		walk(s, "")
	}
	if rootLabel == "" {
		return false
	}
	return applySyncWrap(mod, w.Proc, rootLabel)
}

// insertAt inserts stmt at index i (clamped).
func insertAt(list []ast.Stmt, i int, stmt ast.Stmt) []ast.Stmt {
	if i < 0 {
		i = 0
	}
	if i > len(list) {
		i = len(list)
	}
	out := make([]ast.Stmt, 0, len(list)+1)
	out = append(out, list[:i]...)
	out = append(out, stmt)
	out = append(out, list[i:]...)
	return out
}
