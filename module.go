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

// ModuleFile is the old name of FileInput, kept as an alias until the
// last caller moves.
//
// Deprecated: use FileInput.
type ModuleFile = FileInput

// AnalyzeModuleContext analyzes all files of one module together under
// ctx — the module-level mirror of AnalyzeContext:
//
//	rep, err := uafcheck.AnalyzeModuleContext(ctx, []uafcheck.FileInput{
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
// The report has the batch run's shape: Files holds one outcome per
// input, index-aligned, each Report structurally identical to a
// single-file AnalyzeContext report; Summary folds the files' statuses;
// Metrics is the module-wide snapshot (one frontend pass plus every
// analyzed procedure across all files). No file has Err set, so
// ExitCode is 0, 1 or 2.
//
// WithCache is ignored in module mode: the report cache's content
// addresses cover one file's text, and a module report also depends on
// every other file of the module. (The Analyzer's per-unit memo store
// handles module mode precisely instead — see AnalyzeModuleDelta.)
func AnalyzeModuleContext(ctx context.Context, files []FileInput, options ...Option) (*BatchReport, error) {
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
func (a *Analyzer) AnalyzeModuleDelta(ctx context.Context, files []FileInput, options ...Option) (*BatchReport, error) {
	return analyzeModule(ctx, files, a.config(options))
}

// analyzeModule is the shared whole-module driver behind
// AnalyzeModuleContext and Analyzer.AnalyzeModuleDelta. Without a
// handle in cfg it is a one-shot run; a handle lends its memo store
// and counts the run.
func analyzeModule(ctx context.Context, files []FileInput, cfg config) (br *BatchReport, err error) {
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
		br, err = &BatchReport{}, nil
		for _, f := range files {
			br.addFile(f.Name, crashReport(c))
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

	br = &BatchReport{Files: make([]FileReport, 0, len(files))}
	for i, fr := range res.Files {
		br.addFile(files[i].Name, buildReport(fr, cfg))
	}
	br.Metrics = rec.Finish()
	return br, nil
}

// addFile appends one module file's report, graded by the batch rule,
// and counts it into the summary.
func (b *BatchReport) addFile(name string, rep *Report) {
	fr := FileReport{Name: name, Report: rep}
	g := gradeFile(fr)
	fr.Status = g.Status.String()
	b.Files = append(b.Files, fr)
	b.Summary.Add(g)
}
