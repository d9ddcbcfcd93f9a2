// Incremental mode: per-procedure memoization of the analysis pipeline.
//
// The unit of incrementality is one top-level procedure containing
// begin tasks — exactly the unit the paper's partial inter-procedural
// analysis (§III) already analyzes independently: nested procedures are
// inlined into their root, calls to other top-level procedures are
// opaque, and the only cross-procedure facts a unit consumes are
//
//   - the synced-scope bit of the unit itself (whether every call site
//     of the unit, anywhere in the module, sits inside a sync block —
//     §III-A), and
//   - the module-level bindings its free identifiers resolve to
//     (config consts and top-level procedure names).
//
// A unit's fingerprint hashes the unit's source text together with
// those facts and the effective options; lowering, CCFG construction,
// pruning and PPS exploration are memoized per fingerprint in a
// content-addressed internal/cache store. Memoized results are stored
// position-relative (warning and note lines relative to the unit's
// first line, task labels as within-unit ordinals) so that edits that
// merely shift a unit — or add/remove begin tasks in other units — do
// not invalidate it. Recombining cached and fresh units reproduces the
// from-scratch Result exactly; the public layer's report construction
// is deterministic, so the wire encoding is byte-identical (enforced by
// the property test in incremental_test.go at the repo root).
package analysis

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"uafcheck/internal/ast"
	"uafcheck/internal/cache"
	"uafcheck/internal/ccfg"
	"uafcheck/internal/modgraph"
	"uafcheck/internal/parser"
	"uafcheck/internal/pps"
	"uafcheck/internal/source"
)

// Units is the memo store of the incremental engine: a content-addressed
// in-memory LRU of per-procedure analysis results, shared across files
// and safe for concurrent use. The salt (the public layer passes the
// tool Version) partitions entries across releases the same way the
// report cache does.
//
// Module runs keep two more parts here, each holding only the last
// module snapshot: its parsed files by name (AnalyzeModule skips the
// parser for a file whose text is unchanged) and the summary memo of
// its non-recursive procedures (see modgraph.Memo).
type Units struct {
	salt      string
	c         *cache.Cache[*UnitResult]
	summaries modgraph.Memo

	mu     sync.Mutex
	parsed map[string]parsedFile
}

// parsedFile is one file as the parser left it. The AST and the source
// (whose line table is built once, under a sync.Once) are read-only
// after parsing, so concurrent module runs share them; diags is a copy
// of the parse diagnostics that each run seeds its own collector from,
// because resolution appends to it.
type parsedFile struct {
	src   *source.File
	mod   *ast.Module
	diags []source.Diagnostic
}

// lastParsed returns the parse store. A published map is never written
// again, so the caller reads it without the lock.
func (u *Units) lastParsed() map[string]parsedFile {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.parsed
}

// keepParsed replaces the parse store with one module snapshot's files.
func (u *Units) keepParsed(files map[string]parsedFile) {
	u.mu.Lock()
	u.parsed = files
	u.mu.Unlock()
}

// NewUnits creates a unit store: an in-memory LRU of the cache
// package's default bound (1024 units), with no disk tier.
func NewUnits(salt string) *Units {
	codec := cache.Codec[*UnitResult]{Clone: (*UnitResult).Clone}
	return &Units{salt: salt, c: cache.New(codec, cache.DefaultMaxEntries, "")}
}

// Stats returns the store's traffic counters.
func (u *Units) Stats() cache.Stats { return u.c.Stats() }

// Len returns the number of memoized units.
func (u *Units) Len() int { return u.c.Len() }

// UnitResult is the memoized outcome of one analysis unit — everything
// analyzeProc produces, stored position-relative so the entry survives
// the unit moving within its file (the memo key includes the file
// name, so a unit moved to another file misses). Only complete runs
// are stored: degraded or crashed units depend on this run's budget
// race and are always recomputed.
type UnitResult struct {
	Proc       string        `json:"proc"`
	Warnings   []UnitWarning `json:"warnings,omitempty"`
	Notes      []UnitNote    `json:"notes,omitempty"`
	GraphStats ccfg.Stats    `json:"graph_stats"`
	PPSStats   pps.Stats     `json:"pps_stats"`
	Deadlocks  int           `json:"deadlocks"`
	HasAtomics bool          `json:"has_atomics"`
	Truncated  bool          `json:"truncated,omitempty"`
}

// Clone returns a structurally complete deep copy sharing no mutable
// state with the receiver. The memo store clones on both Put and Get —
// on the store's hot path this runs for every cached unit of every
// re-analysis, which is why it is hand-written rather than a
// serialization round-trip.
func (u *UnitResult) Clone() *UnitResult {
	if u == nil {
		return nil
	}
	v := *u
	if u.GraphStats.PrunedByRule != nil {
		v.GraphStats.PrunedByRule = make(map[ccfg.PruneRule]int, len(u.GraphStats.PrunedByRule))
		for k, n := range u.GraphStats.PrunedByRule {
			v.GraphStats.PrunedByRule[k] = n
		}
	}
	if u.Warnings != nil {
		v.Warnings = make([]UnitWarning, len(u.Warnings))
		copy(v.Warnings, u.Warnings)
		for i := range v.Warnings {
			if p := v.Warnings[i].Prov; p != nil {
				cp := *p
				cp.Chain = append([]string(nil), p.Chain...)
				v.Warnings[i].Prov = &cp
			}
		}
	}
	v.Notes = append([]UnitNote(nil), u.Notes...)
	return &v
}

// UnitWarning is a Warning in position-relative form. Lines are stored
// relative to the unit's first line; columns are shift-invariant and
// stored as is. The task label is stored as a within-unit ordinal
// because the parser assigns labels in file order across all
// procedures — rebasing the ordinal against the unit's begin prefix
// reproduces the label without fingerprinting that prefix.
type UnitWarning struct {
	Var   string `json:"var"`
	Write bool   `json:"write"`
	// TaskOrd is the begin's 0-based ordinal within the unit; TaskLabel
	// is the stored literal fallback for labels the ordinal scheme cannot
	// represent (TaskOrd < 0).
	TaskOrd   int              `json:"task_ord"`
	TaskLabel string           `json:"task_label,omitempty"`
	Reason    pps.UnsafeReason `json:"reason"`
	RelLine   int              `json:"rel_line"`
	Col       int              `json:"col"`
	// DeclLine is relative to the unit's first line, unless DeclAbs marks
	// a module-level declaration (config const) — those are stored
	// absolute, and any module-level edit changes the fingerprint anyway.
	DeclLine int             `json:"decl_line"`
	DeclAbs  bool            `json:"decl_abs,omitempty"`
	Prov     *pps.Provenance `json:"prov,omitempty"`
}

// UnitNote is a Note-severity diagnostic in position-relative form,
// kept in the unit's emission order: lowering notes, then the deadlock
// note.
type UnitNote struct {
	RelLine int    `json:"rel_line"`
	Col     int    `json:"col"`
	Abs     bool   `json:"abs,omitempty"`    // anchored outside the unit: line is absolute
	NoPos   bool   `json:"no_pos,omitempty"` // anchored at NoSpan
	Message string `json:"message"`
}

// IncrStats reports one incremental run's unit-cache traffic.
type IncrStats struct {
	UnitHits   int
	UnitMisses int
}

// unitKey is the content address of one analysis unit: everything that
// can change the unit's (position-relative) result participates, and
// nothing that cannot — in particular neither the unit's absolute
// position nor the number of begin tasks preceding it. calleesFP is the
// module-mode extension: the identities and summary fingerprints of the
// unit's direct module-level callees ("" in single-file mode), which is
// how memo invalidation propagates along call-graph edges — an edit to
// a callee that changes its (transitively composed) summary changes
// this component for exactly the units that call it, while an
// effect-preserving callee edit leaves every caller unit hot.
func unitKey(salt, name, optsFP string, file *source.File, proc *ast.ProcDecl,
	syncedUnit bool, configsFP string, refsFP string, calleesFP string) cache.Key {
	text := ""
	if sp := proc.Sp; sp.IsValid() && int(sp.End) <= len(file.Content) {
		text = file.Content[sp.Start:sp.End]
	}
	synced := "synced=false"
	if syncedUnit {
		synced = "synced=true"
	}
	return cache.KeyOf("uafcheck/unit", salt, name, optsFP, text, synced, configsFP, refsFP, calleesFP)
}

// configsFingerprint canonically encodes every top-level config const:
// source text plus absolute declaration line, because config decl lines
// surface verbatim in warnings ("declared at line N") and config
// bindings affect resolution inside every unit.
func configsFingerprint(file *source.File, mod *ast.Module) string {
	var b strings.Builder
	for _, c := range mod.Configs {
		sp := c.Span()
		text := ""
		if sp.IsValid() && int(sp.End) <= len(file.Content) {
			text = file.Content[sp.Start:sp.End]
		}
		fmt.Fprintf(&b, "%d|%s\n", file.Line(sp.Start), text)
	}
	return b.String()
}

// captureUnit converts a freshly analyzed unit into its
// position-relative memo form. pdiags holds exactly the diagnostics the
// unit's pipeline emitted (the caller gave analyzeProcSafe a private
// collector). Names are copied: the lexer slices them out of the
// source, and the memo must not keep a past snapshot's text alive.
func captureUnit(file *source.File, proc *ast.ProcDecl, beginPrefix int,
	pr *ProcResult, pdiags *source.Diagnostics) *UnitResult {
	base := file.Line(proc.Sp.Start)
	ur := &UnitResult{
		Proc:       strings.Clone(pr.Proc.Name.Name),
		GraphStats: pr.GraphStats,
		PPSStats:   pr.PPSStats,
		Deadlocks:  pr.Deadlocks,
		HasAtomics: pr.HasAtomics,
		Truncated:  pr.Truncated,
	}
	for _, w := range pr.Warnings {
		uw := UnitWarning{
			Var:     strings.Clone(w.Var),
			Write:   w.Write,
			TaskOrd: parser.TaskIndex(w.Task) - beginPrefix,
			Reason:  w.Reason,
			RelLine: w.AccessLine - base,
			Col:     w.AccessCol,
			Prov:    w.Prov,
		}
		if uw.TaskOrd < 0 || parser.TaskIndex(w.Task) < 0 {
			uw.TaskOrd = -1
			uw.TaskLabel = w.Task
		}
		if w.DeclPos.IsValid() && w.DeclPos >= proc.Sp.Start && w.DeclPos < proc.Sp.End {
			uw.DeclLine = w.DeclLine - base
		} else {
			uw.DeclLine = w.DeclLine
			uw.DeclAbs = true
		}
		ur.Warnings = append(ur.Warnings, uw)
	}
	// Replayable diagnostics: the Note-severity entries, in emission
	// order.
	for _, d := range pdiags.All() {
		if d.Severity == source.Note {
			ur.Notes = append(ur.Notes, captureNote(file, proc, base, d))
		}
	}
	return ur
}

func captureNote(file *source.File, proc *ast.ProcDecl, base int, d source.Diagnostic) UnitNote {
	n := UnitNote{Message: d.Message}
	start := d.Span.Start
	if !start.IsValid() {
		n.NoPos = true
		return n
	}
	n.Col = file.Column(start)
	line := file.Line(start)
	if start >= proc.Sp.Start && start < proc.Sp.End {
		n.RelLine = line - base
	} else {
		n.RelLine = line
		n.Abs = true
	}
	return n
}

// materialize rebases a memoized unit against the unit's current
// position and begin prefix, reproducing the ProcResult — and the
// diagnostics — a fresh analyzeProc run would emit.
func (ur *UnitResult) materialize(file *source.File, proc *ast.ProcDecl,
	beginPrefix int, diags *source.Diagnostics) *ProcResult {
	base := file.Line(proc.Sp.Start)
	pr := &ProcResult{
		Proc:       proc,
		GraphStats: ur.GraphStats,
		PPSStats:   ur.PPSStats,
		Deadlocks:  ur.Deadlocks,
		HasAtomics: ur.HasAtomics,
		Truncated:  ur.Truncated,
	}
	if len(ur.Warnings) > 0 {
		pr.Warnings = make([]Warning, 0, len(ur.Warnings))
	}
	for _, uw := range ur.Warnings {
		task := uw.TaskLabel
		if uw.TaskOrd >= 0 {
			task = parser.TaskLabel(beginPrefix + uw.TaskOrd)
		}
		declLine := uw.DeclLine
		declPos := source.NoPos
		if !uw.DeclAbs {
			declLine += base
			declPos = file.PosAt(declLine, 1)
		}
		accessLine := base + uw.RelLine
		pr.Warnings = append(pr.Warnings, Warning{
			Var:        uw.Var,
			Task:       task,
			Proc:       ur.Proc,
			Write:      uw.Write,
			Reason:     uw.Reason,
			AccessLine: accessLine,
			AccessCol:  uw.Col,
			DeclLine:   declLine,
			DeclPos:    declPos,
			Pos:        file.Name + ":" + strconv.Itoa(accessLine) + ":" + strconv.Itoa(uw.Col),
			Prov:       uw.Prov,
		})
	}
	for _, n := range ur.Notes {
		diags.Add(n.diag(file, base))
	}
	return pr
}

// diag re-anchors a memoized note at the unit's current position.
func (n UnitNote) diag(file *source.File, base int) source.Diagnostic {
	d := source.Diagnostic{File: file, Span: source.NoSpan, Severity: source.Note, Message: n.Message}
	if n.NoPos {
		return d
	}
	line := n.RelLine
	if !n.Abs {
		line += base
	}
	p := file.PosAt(line, n.Col)
	d.Span = source.Span{Start: p, End: p}
	return d
}
