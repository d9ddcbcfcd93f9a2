package uafcheck

import (
	"errors"
	"fmt"
	"strings"

	"uafcheck/internal/repair"
)

// Typed failure sentinels. Every entry point reports failures through
// these, wrapping-compatible with errors.Is, so callers branch on
// identity instead of matching message strings:
//
//	rep, err := uafcheck.AnalyzeContext(ctx, name, src)
//	if errors.Is(err, uafcheck.ErrParse) { ... reject the input ... }
//	if err := rep.Err(); errors.Is(err, uafcheck.ErrDeadline) { ... }
//
// The analysis itself never fails on resource pressure — it degrades
// soundly (Report.Degraded) — so budget/deadline/cancellation surface
// through Report.Err rather than the second return value.
var (
	// ErrParse: the source failed to lex, parse or resolve; the error
	// text lists the frontend diagnostics.
	ErrParse = errors.New("uafcheck: frontend errors")
	// ErrBudgetExhausted: the PPS exploration exhausted MaxStates and the
	// report degraded to conservative warnings.
	ErrBudgetExhausted = errors.New("uafcheck: analysis state budget exhausted")
	// ErrDeadline: the deadline (WithDeadline, the context's, or a batch
	// per-file timeout) expired mid-analysis.
	ErrDeadline = errors.New("uafcheck: analysis deadline exceeded")
	// ErrCancelled: the context was cancelled mid-analysis.
	ErrCancelled = errors.New("uafcheck: analysis cancelled")
	// ErrUnresolvedCall: module-mode analysis (AnalyzeModuleContext /
	// Analyzer.AnalyzeModuleDelta) found a call that names no procedure
	// in any file of the module. Errors carrying it also match ErrParse
	// — an unresolved call is a frontend rejection of the module — so
	// existing ErrParse handling (e.g. the uafserve 422 mapping) keeps
	// working, while module-aware callers can branch on the finer
	// sentinel to suggest the missing file.
	ErrUnresolvedCall = errors.New("uafcheck: unresolved cross-file call")
)

// ErrRepairDegraded: Repair refused to run
// because the baseline analysis or a candidate's verification
// re-analysis degraded (budget, deadline, cancellation or a recovered
// panic). A degraded report's warnings are a conservative superset of
// the true set, so "the warning count decreased" cannot honestly accept
// a fix against it. Re-run with a larger budget or without the deadline.
var ErrRepairDegraded = repair.ErrDegraded

// Err maps the report's degradation (if any) onto the typed sentinels:
// nil for a complete run, ErrBudgetExhausted / ErrDeadline /
// ErrCancelled (wrapped with the affected procedures) for the resource
// rungs, and a non-sentinel error describing the recovered panic for
// DegradePanic. The report remains sound either way; Err exists so
// callers that need completeness can branch with errors.Is.
func (r *Report) Err() error {
	if r == nil {
		return nil
	}
	return r.Degraded.Err()
}

// Err maps a degradation onto the typed sentinels; see Report.Err.
func (d *Degradation) Err() error {
	if d == nil {
		return nil
	}
	var base error
	switch d.Reason {
	case DegradeBudget:
		base = ErrBudgetExhausted
	case DegradeDeadline:
		base = ErrDeadline
	case DegradeCancelled:
		base = ErrCancelled
	case DegradePanic:
		if len(d.Crashes) > 0 {
			c := d.Crashes[0]
			return fmt.Errorf("uafcheck: analysis panicked in phase %s: %s", c.Phase, c.Err)
		}
		return errors.New("uafcheck: analysis panicked")
	default:
		return fmt.Errorf("uafcheck: analysis degraded (%s)", d.Reason)
	}
	if len(d.Procs) > 0 {
		return fmt.Errorf("%w (procs: %s)", base, strings.Join(d.Procs, ", "))
	}
	return base
}

// Failure folds a batch file's outcome into one error: the frontend
// error (matching ErrParse) when the file was rejected, the report's
// degradation error otherwise, nil for a complete run — the same
// vocabulary single-file callers get from AnalyzeContext + Report.Err.
func (fr *FileReport) Failure() error {
	if fr.Err != nil {
		return fr.Err
	}
	if fr.Report == nil {
		return nil
	}
	return fr.Report.Err()
}
