package uafcheck

import (
	"context"
	"errors"
	"fmt"

	"uafcheck/internal/repair"
	"uafcheck/internal/udiff"
)

// ---------------------------------------------------------- repair API
//
// Repair is the public face of the internal/repair engine: the same
// verified synchronization synthesis (§VII "optimize the amount and
// position of synchronization points"), but returning *patches* —
// unified diffs with their verification verdicts attached — instead of
// a rewritten source blob. These are the shapes the uafserve
// /v1/repair endpoint and `uafcheck -fix` serialize, so server, CLI
// and library callers share one vocabulary.

// RepairChecks names the two verification passes every accepted patch
// went through, in the order they run. A patch is only emitted when
// BOTH accept it; there are no partially-verified patches.
const (
	// CheckStaticReanalysis: the full static analysis re-ran on the
	// patched source, completed without degradation, and the warning
	// count strictly decreased with no new potential-deadlock note.
	CheckStaticReanalysis = "static-reanalysis"
	// CheckScheduleOracle: bounded exhaustive schedule exploration of
	// the patched procedure observed no remaining race at the warned
	// site, no new use-after-free, and no new deadlock versus the
	// unpatched baseline.
	CheckScheduleOracle = "schedule-oracle"
)

// Verdict is the verification evidence attached to one patch. Patches
// are only ever emitted verified (the engine discards anything that
// fails a check), so Verified is always true on a Patch obtained from
// Repair; the field exists so serialized patches stay meaningful on
// their own.
type Verdict struct {
	// Verified reports that every check in Checks accepted the patch.
	Verified bool `json:"verified"`
	// Checks lists the verification passes run, in order
	// (CheckStaticReanalysis, CheckScheduleOracle).
	Checks []string `json:"checks"`
	// WarningsBefore / WarningsAfter are the verified warning counts
	// around this patch — the remaining-warning delta. Every accepted
	// patch has WarningsAfter < WarningsBefore.
	WarningsBefore int `json:"warnings_before"`
	WarningsAfter  int `json:"warnings_after"`
}

// Patch is one accepted repair step as a unified diff against the
// source it was applied to: the original input for the first patch,
// the previous patch's output for each subsequent one. Applying the
// patches in order with patch(1) reproduces RepairReport.Fixed;
// RepairReport.Diff is the equivalent single cumulative diff.
type Patch struct {
	// Strategy is the candidate kind: "token-chain", "sync-wrap" or
	// "sync-wrap-chain" (the chain-root fence).
	Strategy string `json:"strategy"`
	// Proc / Task locate the warned (procedure, task) group the patch
	// synchronizes.
	Proc string `json:"proc"`
	Task string `json:"task"`
	// Token names the introduced sync variable for token-chain
	// patches ("" for fence strategies).
	Token string `json:"token,omitempty"`
	// Diff is the unified diff (--- a/<name> / +++ b/<name> headers,
	// 3 context lines) in the exact shape `patch -p1` consumes.
	Diff string `json:"diff"`
	// Verdict is the verification evidence.
	Verdict Verdict `json:"verdict"`
}

// RepairReport is the outcome of Repair.
type RepairReport struct {
	// Name echoes the input file name (used in diff headers).
	Name string `json:"name"`
	// Fixed is the fully repaired source (equal to the input when no
	// patch verified).
	Fixed string `json:"fixed"`
	// Diff is the cumulative unified diff original -> Fixed ("" when
	// nothing changed). Equivalent to applying Patches in order.
	Diff string `json:"diff,omitempty"`
	// Patches lists the accepted patches in application order.
	Patches []Patch `json:"patches,omitempty"`
	// InitialWarnings / RemainingWarnings count warnings before the
	// first patch and after the last.
	InitialWarnings   int `json:"initial_warnings"`
	RemainingWarnings int `json:"remaining_warnings"`
	// Remaining holds the warnings still present in Fixed, in
	// SortWarnings order (positions refer to the patched source).
	// Empty when Clean().
	Remaining []Warning `json:"remaining,omitempty"`
	// Rejected explains candidates the verifier refused.
	Rejected []string `json:"rejected,omitempty"`
}

// Clean reports whether the repaired source analyzes without warnings.
func (r *RepairReport) Clean() bool { return r.RemainingWarnings == 0 }

// Clone returns a deep copy of the repair report: mutating the copy
// (or the original) never affects the other — the same contract as
// Report.Clone.
func (r *RepairReport) Clone() *RepairReport {
	if r == nil {
		return nil
	}
	// Positional composite literal on purpose: adding a field to
	// RepairReport without extending this clone becomes a compile
	// error instead of a silently-shared (or silently-dropped) field.
	cp := RepairReport{r.Name, r.Fixed, r.Diff, r.Patches,
		r.InitialWarnings, r.RemainingWarnings, r.Remaining, r.Rejected}

	cp.Patches = append([]Patch(nil), r.Patches...)
	for i := range cp.Patches {
		cp.Patches[i].Verdict = *cp.Patches[i].Verdict.clone()
	}
	cp.Remaining = append([]Warning(nil), r.Remaining...)
	for i := range cp.Remaining {
		if p := cp.Remaining[i].Prov; p != nil {
			pc := *p
			pc.Chain = append([]string(nil), p.Chain...)
			cp.Remaining[i].Prov = &pc
		}
	}
	cp.Rejected = append([]string(nil), r.Rejected...)
	return &cp
}

// clone deep-copies a verdict (same positional-literal compile check).
func (v *Verdict) clone() *Verdict {
	cp := Verdict{v.Verified, v.Checks, v.WarningsBefore, v.WarningsAfter}
	cp.Checks = append([]string(nil), v.Checks...)
	return &cp
}

// Repair synthesizes verified synchronization fixes for every warning
// in src under ctx — the context-first repair entry point, taking the
// same functional options as AnalyzeContext. Each returned patch was
// accepted by full static re-analysis AND the bounded schedule oracle
// (see Verdict); candidates either verify or are refused, never
// emitted unverified.
//
// Typed failures: errors.Is(err, ErrParse) when the source fails the
// frontend, and errors.Is(err, ErrRepairDegraded) when any analysis in
// the repair loop degrades (budget, deadline, cancellation, panic) —
// degraded evidence cannot honestly accept a fix, so Repair refuses
// rather than guessing. Re-run with a larger WithMaxStates budget or
// without a deadline.
func Repair(ctx context.Context, name, src string, options ...Option) (*RepairReport, error) {
	cfg := newConfig(options...)
	ctx, cancel := cfg.callContext(ctx)
	defer cancel()
	in := cfg.internal()
	in.Ctx = ctx
	res, err := repair.Repair(name, src, in)
	if err != nil {
		if errors.Is(err, repair.ErrParse) {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		return nil, err
	}
	return buildRepairReport(name, src, res), nil
}

// buildRepairReport converts the internal repair result into the
// public patch-oriented shape, deriving per-step and cumulative
// unified diffs from the engine's source snapshots.
func buildRepairReport(name, src string, res *repair.Result) *RepairReport {
	out := &RepairReport{
		Name:              name,
		Fixed:             res.Fixed,
		Diff:              udiff.Unified(name, src, res.Fixed),
		InitialWarnings:   res.InitialWarnings,
		RemainingWarnings: res.RemainingWarnings,
		Rejected:          append([]string(nil), res.Rejected...),
	}
	prev := src
	for _, s := range res.Steps {
		out.Patches = append(out.Patches, Patch{
			Strategy: string(s.Strategy),
			Proc:     s.Proc,
			Task:     s.Task,
			Token:    s.Token,
			Diff:     udiff.Unified(name, prev, s.Patched),
			Verdict: Verdict{
				Verified:       true,
				Checks:         []string{CheckStaticReanalysis, CheckScheduleOracle},
				WarningsBefore: s.Before,
				WarningsAfter:  s.After,
			},
		})
		prev = s.Patched
	}
	for _, w := range res.Remaining {
		out.Remaining = append(out.Remaining, Warning{
			Var: w.Var, Task: w.Task, Proc: w.Proc, Write: w.Write,
			Reason: w.Reason.String(), Pos: w.Pos,
			AccessLine: w.AccessLine, AccessCol: w.AccessCol,
			DeclLine: w.DeclLine, Conservative: w.Conservative, Prov: w.Prov,
		})
	}
	SortWarnings(out.Remaining)
	return out
}
