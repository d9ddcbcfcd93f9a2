// Package eval runs the paper's evaluation (§V): it feeds a generated
// corpus through the library's batch entry point, scores warnings
// against the corpus's ground-truth labels, and assembles Table I. It
// can also cross-validate flagged programs with the dynamic
// schedule-exploration oracle and compare against the §VI baselines.
package eval

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"uafcheck"
	"uafcheck/internal/analysis"
	"uafcheck/internal/corpus"
	"uafcheck/internal/obs"
	"uafcheck/internal/pps"
	"uafcheck/internal/pst"
	"uafcheck/internal/runtime"
)

// TableI mirrors the paper's Table I rows.
type TableI struct {
	TotalTests        int
	TestsWithBegin    int
	TestsWithWarnings int
	WarningsReported  int
	TruePositives     int
}

// TPPercent is the paper's final row.
func (t TableI) TPPercent() float64 {
	if t.WarningsReported == 0 {
		return 0
	}
	return 100 * float64(t.TruePositives) / float64(t.WarningsReported)
}

// Format renders the table like the paper.
func (t TableI) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-42s %6d\n", "Total test cases", t.TotalTests)
	fmt.Fprintf(&b, "%-42s %6d\n", "Test cases with begin tasks", t.TestsWithBegin)
	fmt.Fprintf(&b, "%-42s %6d\n", "Test cases with Use-After-Free warnings", t.TestsWithWarnings)
	fmt.Fprintf(&b, "%-42s %6d\n", "Number of warnings reported", t.WarningsReported)
	fmt.Fprintf(&b, "%-42s %6d\n", "True positives", t.TruePositives)
	fmt.Fprintf(&b, "%-42s %5.1f%%\n", "Percentage of true positives", t.TPPercent())
	return b.String()
}

// CaseOutcome records the analysis result for one test case.
type CaseOutcome struct {
	Case       *corpus.TestCase
	Warnings   []uafcheck.Warning
	FrontendOK bool
	// TrueHits are warnings matching a ground-truth dangerous site.
	TrueHits int
	// MissedSites are ground-truth sites the analysis did not flag
	// (soundness gaps — should stay empty).
	MissedSites []string
	// Duration is the wall time of this case's analysis.
	Duration time.Duration
	// StatesCreated / StatesProcessed / StatesMerged sum the PPS stats
	// across the case's analyzed procedures (telemetry aggregates).
	StatesCreated   int
	StatesProcessed int
	StatesMerged    int
}

// Details carries everything beyond the headline table.
type Details struct {
	Outcomes []CaseOutcome
	// PerPattern aggregates warning counts by generator pattern.
	PerPattern map[string]*PatternStats
	// UnexpectedWarnCases lists safe-pattern cases that warned — each one
	// is an analysis precision bug.
	UnexpectedWarnCases []string
	// FrontendFailures counts cases the frontend rejected.
	FrontendFailures int
}

// PatternStats aggregates one generator pattern, including the
// timing and state-count telemetry FormatTelemetry prints.
type PatternStats struct {
	Cases    int
	Warnings int
	TrueHits int
	// TotalTime / MaxTime aggregate per-case analysis wall time.
	TotalTime time.Duration
	MaxTime   time.Duration
	// States is the log2 histogram of per-case PPS states created;
	// MaxStates is its exact maximum.
	States    obs.Histogram
	MaxStates int64
}

// RunTableI analyzes every case through uafcheck.AnalyzeFilesContext,
// the library's batch entry point, and assembles the table from the
// file reports. The options are the library's: WithWorkers,
// WithDeadline and WithRetries set the pool, each attempt's deadline
// and the retry ladder, and the analysis options (WithAtomicsModel,
// WithAtomicsCounting, ...) pick the mode. The Summary is the batch
// report's robustness accounting (cases OK / degraded / timed out /
// crashed). Reports are index-aligned with cases, so the table and
// details do not depend on the worker count.
func RunTableI(ctx context.Context, cases []corpus.TestCase, options ...uafcheck.Option) (TableI, *Details, uafcheck.BatchSummary) {
	files := make([]uafcheck.FileInput, len(cases))
	for i := range cases {
		files[i] = uafcheck.FileInput{Name: cases[i].Name + ".chpl", Src: cases[i].Source}
	}
	br := uafcheck.AnalyzeFilesContext(ctx, files, options...)

	table := TableI{TotalTests: len(cases)}
	det := &Details{PerPattern: make(map[string]*PatternStats)}
	for i := range cases {
		tc := &cases[i]
		out := outcomeFrom(tc, br.Files[i])
		if tc.HasBegin {
			table.TestsWithBegin++
		}
		ps := det.PerPattern[tc.Pattern]
		if ps == nil {
			ps = &PatternStats{}
			det.PerPattern[tc.Pattern] = ps
		}
		ps.absorb(out)
		if !out.FrontendOK {
			det.FrontendFailures++
		}
		if len(out.Warnings) > 0 {
			table.TestsWithWarnings++
			table.WarningsReported += len(out.Warnings)
			table.TruePositives += out.TrueHits
			if !tc.WantWarn {
				det.UnexpectedWarnCases = append(det.UnexpectedWarnCases, tc.Name)
			}
		}
		det.Outcomes = append(det.Outcomes, out)
	}
	return table, det, br.Summary
}

// absorb folds one case outcome into the pattern aggregates.
func (ps *PatternStats) absorb(out CaseOutcome) {
	ps.Cases++
	ps.Warnings += len(out.Warnings)
	ps.TrueHits += out.TrueHits
	ps.TotalTime += out.Duration
	if out.Duration > ps.MaxTime {
		ps.MaxTime = out.Duration
	}
	ps.States.Observe(int64(out.StatesCreated))
	if int64(out.StatesCreated) > ps.MaxStates {
		ps.MaxStates = int64(out.StatesCreated)
	}
}

// outcomeFrom scores one file report against the case's ground-truth
// labels. A report-less file — rejected by the frontend, or abandoned
// as a hard hang — scores as a frontend-level failure with no warnings.
func outcomeFrom(tc *corpus.TestCase, fr uafcheck.FileReport) CaseOutcome {
	out := CaseOutcome{Case: tc, Duration: fr.Duration}
	if fr.Report == nil {
		return out
	}
	out.FrontendOK = true
	out.Warnings = fr.Report.Warnings
	for _, st := range fr.Report.Stats {
		out.StatesCreated += st.StatesCreated
		out.StatesProcessed += st.StatesProcessed
		out.StatesMerged += st.StatesMerged
	}
	truth := make(map[string]bool, len(tc.TrueSites))
	for _, s := range tc.TrueSites {
		truth[s] = false
	}
	for _, w := range out.Warnings {
		key := fmt.Sprintf("%s:%d", w.Var, w.AccessLine)
		if _, ok := truth[key]; ok {
			if !truth[key] {
				truth[key] = true
				out.TrueHits++
			}
		}
	}
	for _, s := range tc.TrueSites {
		if !truth[s] {
			out.MissedSites = append(out.MissedSites, s)
		}
	}
	return out
}

// FormatPatternBreakdown renders the per-pattern table for EXPERIMENTS.md.
func (d *Details) FormatPatternBreakdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %7s %9s %10s\n", "pattern", "cases", "warnings", "true-hits")
	for _, n := range d.patternNames() {
		ps := d.PerPattern[n]
		fmt.Fprintf(&b, "%-22s %7d %9d %10d\n", n, ps.Cases, ps.Warnings, ps.TrueHits)
	}
	return b.String()
}

// OracleReport is the dynamic cross-validation result.
type OracleReport struct {
	CasesValidated int
	// ConfirmedTrue counts ground-truth sites dynamically observed.
	ConfirmedTrue int
	// TotalTrue is the number of ground-truth sites checked.
	TotalTrue int
	// FalseAlarms counts safe/atomic cases where the oracle DID observe a
	// use-after-free (generator labeling bugs — should be zero).
	FalseAlarms []string
	// Cancelled marks a validation stopped early by its context; the
	// counts above cover only the cases validated before the cut.
	Cancelled bool
}

// ValidateWithOracle replays flagged cases under many schedules and
// checks the ground-truth labels dynamically. maxCases bounds the work
// (0 = all flagged cases); runsPerCase bounds schedules per case. The
// schedule sampler polls ctx between runs, so a deadline or cancellation
// stops the validation promptly with the cases validated so far
// (Cancelled marks the cut).
func ValidateWithOracle(ctx context.Context, cases []corpus.TestCase, maxCases, runsPerCase int, seed int64) OracleReport {
	rep := OracleReport{}
	for i := range cases {
		tc := &cases[i]
		if !tc.HasBegin || !tc.WantWarn {
			continue
		}
		if maxCases > 0 && rep.CasesValidated >= maxCases {
			break
		}
		if ctx.Err() != nil {
			rep.Cancelled = true
			break
		}
		rep.CasesValidated++
		mod, info, diags := runtime.Load(tc.Name+".chpl", tc.Source)
		if diags.HasErrors() {
			continue
		}
		er := runtime.ExploreRandom(ctx, mod, info, tc.EntryProc, runsPerCase, seed+int64(i))
		if er.Cancelled {
			rep.Cancelled = true
		}
		rep.TotalTrue += len(tc.TrueSites)
		for _, s := range tc.TrueSites {
			v, line, _ := strings.Cut(s, ":") // sites are "var:line"
			n, _ := strconv.Atoi(line)
			if er.Observed(v, n) {
				rep.ConfirmedTrue++
			}
		}
		if len(tc.TrueSites) == 0 && len(er.UAF) > 0 {
			rep.FalseAlarms = append(rep.FalseAlarms, tc.Name)
		}
	}
	return rep
}

// BaselineReport compares the paper's analysis with the §VI baselines
// over the begin-task cases.
type BaselineReport struct {
	Cases         int
	PaperWarnings int
	// NaiveMHPFlags counts the accesses a may-happen-in-parallel oracle
	// with no model of point-to-point sync flags; FinishFlags counts
	// those the X10/Habanero-Java finish discipline rejects (every begin
	// that touches outer memory sits in a sync block).
	NaiveMHPFlags int
	FinishFlags   int
	// PSTFlags counts accesses flagged by the Program Structure Tree MHP
	// analysis (finish/async only, no point-to-point sync).
	PSTFlags int
	// PPSMHPFlags counts accesses flagged by the §VI MHP-oracle
	// formulation backed by the PPS exploration itself (point-to-point
	// aware) — it should track the paper analysis closely.
	PPSMHPFlags  int
	ClearedByPPS int
	// FinishWouldBlock counts cases where the X10 discipline would
	// reject a program the paper's analysis proves safe.
	FinishWouldBlock int
}

// RunBaselines computes the comparison.
func RunBaselines(cases []corpus.TestCase, opts analysis.Options) BaselineReport {
	rep := BaselineReport{}
	kept := opts
	kept.KeepGraphs = true
	for i := range cases {
		tc := &cases[i]
		if !tc.HasBegin {
			continue
		}
		res := analysis.AnalyzeSource(tc.Name+".chpl", tc.Source, kept)
		if res.Diags.HasErrors() {
			continue
		}
		rep.Cases++
		paper, tracked := 0, 0
		for _, pr := range res.Procs {
			paper += len(pr.Warnings)
			if pr.Graph != nil {
				tracked += len(pr.Graph.Accesses)
				rep.PPSMHPFlags += len(pps.CheckUAFViaMHP(pr.Graph, pps.Options{}))
			}
			if res.Info != nil {
				rep.PSTFlags += len(pst.Build(res.Info, pr.Proc).CheckUAF())
			}
		}
		// Both baselines flag every tracked access, so they report the
		// same count. The CCFG builder already dropped the accesses a
		// sync block or the synced-scope list protects, which are all
		// that finish discipline allows; and with no model of
		// point-to-point sync, a variable's scope end may happen in
		// parallel with every access that is left.
		rep.PaperWarnings += paper
		rep.NaiveMHPFlags += tracked
		rep.FinishFlags += tracked
		if paper == 0 && tracked > 0 {
			rep.FinishWouldBlock++
		}
	}
	rep.ClearedByPPS = rep.NaiveMHPFlags - rep.PaperWarnings
	return rep
}

// Format renders the baseline comparison.
func (r BaselineReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-46s %6d\n", "Begin-task cases analyzed", r.Cases)
	fmt.Fprintf(&b, "%-46s %6d\n", "Paper analysis warnings", r.PaperWarnings)
	fmt.Fprintf(&b, "%-46s %6d\n", "Naive MHP flags (no point-to-point sync)", r.NaiveMHPFlags)
	fmt.Fprintf(&b, "%-46s %6d\n", "X10-style finish-enforcement flags", r.FinishFlags)
	fmt.Fprintf(&b, "%-46s %6d\n", "PST-based MHP flags (finish/async only)", r.PSTFlags)
	fmt.Fprintf(&b, "%-46s %6d\n", "PPS-backed MHP-oracle flags (§VI formulation)", r.PPSMHPFlags)
	fmt.Fprintf(&b, "%-46s %6d\n", "Accesses cleared by PPS exploration", r.ClearedByPPS)
	fmt.Fprintf(&b, "%-46s %6d\n", "Safe cases finish-discipline would reject", r.FinishWouldBlock)
	return b.String()
}
