package uafcheck_test

// Golden-annotation suite: every .chpl file under testdata/suite carries
// expectation comments that the analysis output is checked against —
// the same style a compiler test suite (like the Chapel suite the paper
// evaluates on) uses.
//
// Annotation grammar (leading comment lines):
//
//	// expect: clean
//	// expect: warning <var> <task...> <reason>
//	// expect: note <substring>
//	// options: model-atomics | count-atomics | no-prune
//	// entry: <proc>   (dynamic-check entry point)
//
// Unlisted warnings, missing warnings and missing notes all fail.
// Additionally, every clean-expected program is run through the dynamic
// oracle to confirm it is genuinely schedule-safe, and every program
// must analyze to the same canonical wire bytes through AnalyzeContext,
// through a cold and a warm Analyzer.AnalyzeDelta, and through a
// one-file AnalyzeFilesContext batch.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uafcheck"
)

type expectation struct {
	clean    bool
	warnings []warnExpect
	notes    []string
	entry    string
	opts     []uafcheck.Option
}

type warnExpect struct {
	variable string
	task     string
	reason   string
}

func parseExpectations(t *testing.T, src, name string) expectation {
	t.Helper()
	var exp expectation
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "// entry:") {
			exp.entry = strings.TrimSpace(strings.TrimPrefix(line, "// entry:"))
			continue
		}
		if strings.HasPrefix(line, "// options:") {
			for _, opt := range strings.Fields(strings.TrimPrefix(line, "// options:")) {
				switch opt {
				case "model-atomics":
					exp.opts = append(exp.opts, uafcheck.WithAtomicsModel(true))
				case "count-atomics":
					exp.opts = append(exp.opts, uafcheck.WithAtomicsCounting(true))
				case "no-prune":
					exp.opts = append(exp.opts, uafcheck.WithPrune(false))
				default:
					t.Fatalf("%s: unknown option %q", name, opt)
				}
			}
			continue
		}
		if !strings.HasPrefix(line, "// expect:") {
			continue
		}
		rest := strings.TrimSpace(strings.TrimPrefix(line, "// expect:"))
		switch {
		case rest == "clean":
			exp.clean = true
		case strings.HasPrefix(rest, "warning "):
			fields := strings.Fields(strings.TrimPrefix(rest, "warning "))
			if len(fields) < 3 {
				t.Fatalf("%s: malformed warning expectation %q", name, line)
			}
			reason := fields[len(fields)-1]
			exp.warnings = append(exp.warnings, warnExpect{
				variable: fields[0],
				task:     strings.Join(fields[1:len(fields)-1], " "),
				reason:   reason,
			})
		case strings.HasPrefix(rest, "note "):
			exp.notes = append(exp.notes, strings.TrimPrefix(rest, "note "))
		default:
			t.Fatalf("%s: unknown expectation %q", name, line)
		}
	}
	if !exp.clean && len(exp.warnings) == 0 && len(exp.notes) == 0 {
		t.Fatalf("%s: no expectations declared", name)
	}
	return exp
}

func TestGoldenSuite(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "suite", "*.chpl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no suite files: %v", err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			exp := parseExpectations(t, src, path)

			ctx := context.Background()
			rep, err := uafcheck.AnalyzeContext(ctx, path, src, exp.opts...)
			if err != nil {
				t.Fatalf("analysis failed: %v", err)
			}

			// Match warnings exactly (set equality on var+task+reason).
			got := make(map[string]int)
			for _, w := range rep.Warnings {
				got[fmt.Sprintf("%s|%s|%s", w.Var, w.Task, w.Reason)]++
			}
			want := make(map[string]int)
			for _, w := range exp.warnings {
				want[fmt.Sprintf("%s|%s|%s", w.variable, w.task, w.reason)]++
			}
			if exp.clean && len(rep.Warnings) != 0 {
				t.Errorf("expected clean, got %d warnings:\n%v", len(rep.Warnings), rep.Warnings)
			}
			for k, n := range want {
				if got[k] < n {
					t.Errorf("missing expected warning %s (want %d, got %d)\nall: %v",
						k, n, got[k], rep.Warnings)
				}
			}
			for k := range got {
				if _, ok := want[k]; !ok && !exp.clean {
					t.Errorf("unexpected warning %s\nall: %v", k, rep.Warnings)
				}
			}
			// Notes: substring match.
			for _, n := range exp.notes {
				found := false
				for _, note := range rep.Notes {
					if strings.Contains(note, n) {
						found = true
					}
				}
				if !found {
					t.Errorf("missing expected note containing %q\nnotes: %v", n, rep.Notes)
				}
			}

			// Entry-point conformance: the wire bytes carry the notes and
			// Truncated, which the warm run replays from the unit memo.
			wantWire := wireBytes(t, path, rep, err)
			an := uafcheck.NewAnalyzer()
			for _, run := range []string{"cold", "warm"} {
				got, gerr := an.AnalyzeDelta(ctx, path, src, exp.opts...)
				if g := wireBytes(t, path, got, gerr); g != wantWire {
					t.Errorf("%s AnalyzeDelta differs from AnalyzeContext\n delta: %s\n  want: %s", run, g, wantWire)
				}
			}
			if s := an.Stats(); s.UnitHits != s.UnitMisses {
				t.Errorf("warm run replayed %d units; the cold run computed %d", s.UnitHits, s.UnitMisses)
			}
			files := []uafcheck.FileInput{{Name: path, Src: src}}
			fr := uafcheck.AnalyzeFilesContext(ctx, files, exp.opts...).Files[0]
			if g := wireBytes(t, path, fr.Report, fr.Err); g != wantWire {
				t.Errorf("batch differs from AnalyzeContext\n batch: %s\n  want: %s", g, wantWire)
			}

			// Dynamic cross-check for clean programs: no schedule may
			// race or deadlock.
			if exp.clean {
				entry := exp.entry
				if entry == "" {
					entry = entryProc(src)
				}
				dyn, err := uafcheck.ExploreSchedules(path, src, entry, 30000, 1, true)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if len(dyn.UAFSites) != 0 {
					t.Errorf("clean-expected program races dynamically: %v", dyn.UAFSites)
				}
				if dyn.Deadlocks != 0 {
					t.Errorf("clean-expected program deadlocks dynamically")
				}
			}
		})
	}
}

// entryProc extracts the first procedure name from the source (suite
// programs put the analyzed entry first or make it self-contained).
func entryProc(src string) string {
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "proc ") {
			rest := strings.TrimPrefix(line, "proc ")
			if i := strings.IndexAny(rest, "( "); i > 0 {
				return rest[:i]
			}
		}
	}
	return ""
}
