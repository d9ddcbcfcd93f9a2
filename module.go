package uafcheck

import (
	"context"
	"fmt"
	"strings"

	"uafcheck/internal/analysis"
	"uafcheck/internal/obs"
)

// ------------------------------------------------------- module mode
//
// Module mode analyzes every file of a program together: the files are
// linked against a shared module scope, cross-file calls resolve to
// their defining file, per-procedure boundary summaries are computed
// bottom-up over the call graph (with a fixpoint over cycles), and
// each file's report reflects what its procedures' callees — in any
// file — do to by-ref arguments, including fire-and-forget tasks that
// escape the call. docs/INTERPROCEDURAL.md describes the machinery.

// ModuleFile is one source file of a whole-module analysis.
type ModuleFile struct {
	// Name labels the file in warnings and reports (usually its path).
	Name string
	// Src is the source text.
	Src string
}

// ModuleReport is the outcome of analyzing one module.
type ModuleReport struct {
	// Files holds one per-file outcome, index-aligned with the input.
	// Each entry's Report is structurally identical to a single-file
	// AnalyzeContext report (wire-encodable, byte-stable), so module
	// results flow through the same NDJSON surfaces as batch results.
	Files []FileReport
	// Metrics is the module-wide telemetry snapshot (one frontend pass
	// plus every analyzed procedure across all files).
	Metrics Metrics
}

// ExitCode maps the module outcome onto the documented uafcheck shell
// contract: 0 = clean, 1 = exact warnings, 2 = degraded/incomplete
// somewhere. Frontend and unresolved-call failures surface as errors
// from the entry points (exit 3 territory) before a ModuleReport
// exists.
func (m *ModuleReport) ExitCode() int {
	code := 0
	for _, f := range m.Files {
		if f.Report == nil {
			continue
		}
		if f.Report.Degraded != nil {
			return 2
		}
		if len(f.Report.Warnings) > 0 {
			code = 1
		}
	}
	return code
}

// AnalyzeModuleContext analyzes all files of one module together under
// ctx — the module-level mirror of AnalyzeContext:
//
//	rep, err := uafcheck.AnalyzeModuleContext(ctx, []uafcheck.ModuleFile{
//	    {Name: "main.chpl", Src: mainSrc},
//	    {Name: "lib.chpl", Src: libSrc},
//	}, uafcheck.WithMaxStates(1 << 16))
//
// Typed failures: errors.Is(err, ErrParse) when any file fails the
// frontend; when the failure is a call that names no procedure in any
// file, the error additionally matches ErrUnresolvedCall. Resource
// degradation never errors — it surfaces per file through
// Report.Degraded, exactly as in single-file mode.
//
// WithCache is ignored in module mode: the report cache's content
// addresses cover one file's text, and a module report also depends on
// every other file of the module. (The Analyzer's per-unit memo store
// handles module mode precisely instead — see AnalyzeModuleDelta.)
func AnalyzeModuleContext(ctx context.Context, files []ModuleFile, options ...Option) (*ModuleReport, error) {
	return analyzeModule(ctx, files, newConfig(options...))
}

// AnalyzeModuleDelta analyzes a module snapshot reusing what the
// handle kept from earlier calls. Each call takes the full file set
// (the snapshot, not a diff) and re-does only what the edit changed:
//
//   - a file whose name and text match the handle's last snapshot is
//     not parsed again;
//   - a non-recursive procedure whose text, module-level bindings and
//     direct callees' summaries match the last snapshot keeps its
//     boundary summary without being lowered;
//   - an analysis unit whose fingerprint still matches is replayed from
//     the memo store, and the units it had to compute are stored.
//
// Unit fingerprints include the identities and boundary summaries of
// each procedure's direct module-level callees, so editing one file
// invalidates exactly the units whose composed view changed: the
// edited file's own units, plus transitive callers of any procedure
// whose summary changed. An effect-preserving callee edit leaves every
// other file's units hot. Name resolution still runs over every file.
//
// The returned report is byte-identical (canonical wire encoding) to
// AnalyzeModuleContext with the same options, which it takes;
// single-file and module units share the store without key collisions.
func (a *Analyzer) AnalyzeModuleDelta(ctx context.Context, files []ModuleFile, options ...Option) (*ModuleReport, error) {
	return analyzeModule(ctx, files, a.config(options))
}

// analyzeModule is the shared whole-module driver behind
// AnalyzeModuleContext and Analyzer.AnalyzeModuleDelta. Without a
// handle in cfg it is a one-shot run; a handle lends its memo store
// and counts the run.
func analyzeModule(ctx context.Context, files []ModuleFile, cfg config) (mr *ModuleReport, err error) {
	var units *analysis.Units
	if a := cfg.analyzer; a != nil {
		a.files.Add(int64(len(files)))
		units = a.units
	}
	ctx, cancel := cfg.callContext(ctx)
	defer cancel()
	defer recoverCrash(func(c Crash) {
		// A crash outside the per-proc pipeline degrades every file's
		// report instead of unwinding into the caller.
		mr, err = &ModuleReport{}, nil
		for _, f := range files {
			mr.Files = append(mr.Files, moduleFileReport(f.Name, crashReport(c)))
		}
	})
	rec := obs.New()
	in := cfg.internal()
	in.KeepGraphs = cfg.trace
	in.Obs = rec
	in.Ctx = ctx

	afiles := make([]analysis.ModuleFile, len(files))
	for i, f := range files {
		afiles[i] = analysis.ModuleFile{Name: f.Name, Src: f.Src}
	}
	res, stats := analysis.AnalyzeModule(afiles, in, units)
	if units != nil {
		cfg.analyzer.count(stats)
	}
	if res.FrontendFailed {
		var b strings.Builder
		for _, fr := range res.Files {
			b.WriteString(frontendErrors(fr.Diags))
		}
		if len(res.Unresolved) > 0 {
			return nil, fmt.Errorf("%w (%w):\n%s",
				ErrUnresolvedCall, ErrParse, b.String())
		}
		return nil, fmt.Errorf("%w:\n%s", ErrParse, b.String())
	}

	mr = &ModuleReport{}
	for i, fr := range res.Files {
		mr.Files = append(mr.Files, moduleFileReport(files[i].Name, buildReport(fr, cfg)))
	}
	mr.Metrics = rec.Finish()
	return mr, nil
}

// moduleFileReport wraps one module file's report.
func moduleFileReport(name string, rep *Report) FileReport {
	return FileReport{Name: name, Status: gradeFile(FileReport{Report: rep}).Status.String(), Report: rep}
}
