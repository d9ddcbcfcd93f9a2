// Package ir lowers resolved MiniChapel procedures into the concurrency
// intermediate form the CCFG is built from.
//
// The lowering mirrors what the paper's pass sees in the Chapel IR (§III:
// "the special read/write functions for sync and single are embedded in"):
//
//   - reads and writes of sync/single variables become explicit readFE /
//     readFF / writeEF operations;
//   - atomic-variable operations become explicit atomic ops (recorded but
//     deliberately NOT treated as synchronization, matching §IV-A — this
//     is the paper's main source of false positives);
//   - nested procedures are inlined at their call sites with a call-stack
//     recursion cutoff (§III-A), exposing hidden outer-variable accesses;
//   - calls to non-nested procedures stay opaque (partial
//     inter-procedural analysis);
//   - loops containing sync ops or begins are subsumed into a single node
//     and reported as an analysis limit; loops with only variable accesses
//     collapse to a single region (§IV-A).
package ir

import (
	"uafcheck/internal/ast"
	"uafcheck/internal/source"
	"uafcheck/internal/sym"
)

// Instr is one lowered instruction.
type Instr interface {
	Span() source.Span
}

// Decl marks a variable declaration: the symbol becomes local to the
// current task frame and its scope ends where the declaring block ends.
type Decl struct {
	Sym *sym.Symbol
	Sp  source.Span
}

// Access is a read or write of a plain variable. Whether it is an
// outer-variable access depends on the task context at CCFG time.
type Access struct {
	Sym   *sym.Symbol
	Write bool
	Sp    source.Span
}

// SyncOp is a blocking synchronization operation on a sync/single
// variable: readFE, readFF or writeEF.
type SyncOp struct {
	Sym *sym.Symbol
	Op  sym.SyncOpKind
	Sp  source.Span
}

// AtomicOp is a non-blocking atomic operation. The static analysis records
// but does not model it (paper §IV-A) unless the atomics extension is on;
// the dynamic oracle always models it.
type AtomicOp struct {
	Sym *sym.Symbol
	Op  sym.SyncOpKind
	// Arg is the constant operand when the source supplies one (the
	// waitFor threshold, the fetchAdd increment, the written value);
	// HasArg distinguishes a present constant from none. The counting
	// refinement needs these; non-constant operands stay unmodelled.
	Arg    int64
	HasArg bool
	// Method is the source-level method name, for diagnostics.
	Method string
	Sp     source.Span
}

// Begin creates a fire-and-forget task executing Body.
type Begin struct {
	Label string
	Body  *Block
	Stmt  *ast.BeginStmt
	Sp    source.Span
}

// SyncRegion is a sync { } block: the executing task blocks at the end of
// the region until every task created inside it (transitively) completes.
type SyncRegion struct {
	Body *Block
	Sp   source.Span
}

// If is a two-way branch; condition accesses are emitted before it.
// Else may be nil, meaning the else path is an empty skip.
type If struct {
	Then *Block
	Else *Block
	Sp   source.Span
}

// Region is an unconditional nested block: a plain `{ }` block or an
// inlined nested-procedure body. It opens a scope but never forks control.
type Region struct {
	Body *Block
	Sp   source.Span
}

// Loop is a collapsed loop region (paper §IV-A). When Subsumed is true the
// body contained sync ops or begins that the analysis cannot model; the
// retained body holds only the loop's variable accesses.
type Loop struct {
	Body     *Block
	Subsumed bool
	Sp       source.Span
}

// Call marks an opaque call to a non-inlined (top-level) procedure.
// Module-mode lowering additionally records the callee symbol and the
// by-ref actuals so per-procedure summaries can be applied at the call
// boundary; single-file analysis ignores both fields.
type Call struct {
	Callee string
	// CalleeSym is the resolved procedure symbol (possibly a linker
	// extern from another file of the module). Nil when unresolved.
	CalleeSym *sym.Symbol
	// RefArgs lists the by-ref parameter positions whose actual is a
	// variable, with the caller-side symbol after inline substitution.
	RefArgs []RefArg
	Sp      source.Span
}

// RefArg binds one by-ref formal position to the actual variable
// passed at a call site.
type RefArg struct {
	Index int
	Sym   *sym.Symbol
}

// ParamEffects is the per-formal slice of a procedure summary visible
// at the call boundary: whether the callee (transitively) reads or
// writes the by-ref formal from the calling task (Direct*) or from a
// fire-and-forget task that may outlive the call (Esc*). Positions
// that are not by-ref are all-false.
type ParamEffects struct {
	DirectRead  bool
	DirectWrite bool
	EscRead     bool
	EscWrite    bool
}

// Return marks a return statement. The lowering keeps it as a marker; a
// non-tail return is reported as an analysis limit.
type Return struct {
	Sp source.Span
}

func (i *Decl) Span() source.Span       { return i.Sp }
func (i *Access) Span() source.Span     { return i.Sp }
func (i *SyncOp) Span() source.Span     { return i.Sp }
func (i *AtomicOp) Span() source.Span   { return i.Sp }
func (i *Begin) Span() source.Span      { return i.Sp }
func (i *SyncRegion) Span() source.Span { return i.Sp }
func (i *If) Span() source.Span         { return i.Sp }
func (i *Region) Span() source.Span     { return i.Sp }
func (i *Loop) Span() source.Span       { return i.Sp }
func (i *Call) Span() source.Span       { return i.Sp }
func (i *Return) Span() source.Span     { return i.Sp }

// Block is a straight-line instruction sequence with an associated lexical
// scope (used to delimit variable lifetimes).
type Block struct {
	Scope  *sym.Scope
	Instrs []Instr
}

// Program is the lowered form of one root procedure.
type Program struct {
	Proc *ast.ProcDecl
	Info *sym.Info
	Root *Block
	// RefParams lists the by-ref formals of the root procedure; the
	// analysis driver may mark them synced when every call site is
	// enclosed in a sync block (paper §III-A, synced-scope list).
	RefParams []*sym.Symbol
	// EndSpan locates the procedure's closing brace — the "end of parent
	// scope" of proc-level variables (Node 10 in the paper's Figure 2).
	EndSpan source.Span
	// Truncated records that the recursion cutoff fired while expanding
	// nested procedures (paper §III-A): a cyclic nested-call chain was
	// stopped, so the analysis of this procedure is a partial view.
	// Summary-mode lowering falls back to the per-site inliner on such
	// cycles, so the flag means the same thing in both modes.
	Truncated bool
}
