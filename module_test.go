package uafcheck_test

// Property tests for the module-mode guarantees:
//
//   - Analyzer.AnalyzeModuleDelta is byte-identical to a one-shot
//     AnalyzeModuleContext run, cold and across random file edits;
//   - memo invalidation is graph-scoped: editing a callee re-keys the
//     edited file's units plus exactly the transitive callers whose
//     composed summaries changed, observed through unit hit/miss stats.
//
// `make test-race` runs all of these under the race detector, which
// also certifies the concurrent module-delta path below.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"uafcheck"
	"uafcheck/internal/progen"
	"uafcheck/internal/wire"
)

func modFiles(fs []progen.File) []uafcheck.FileInput {
	out := make([]uafcheck.FileInput, len(fs))
	for i, f := range fs {
		out[i] = uafcheck.FileInput{Name: f.Name, Src: f.Src}
	}
	return out
}

// moduleWire canonically encodes each file of a module report the way
// the /v1/analyze-batch module stream does.
func moduleWire(t *testing.T, mrep *uafcheck.BatchReport) []string {
	t.Helper()
	out := make([]string, len(mrep.Files))
	for i, fr := range mrep.Files {
		out[i] = wireBytes(t, fr.Name, fr.Report, fr.Err)
	}
	return out
}

func requireModulesEqual(t *testing.T, got, want *uafcheck.BatchReport, label string) {
	t.Helper()
	if got.Summary != want.Summary {
		t.Fatalf("%s: summary %+v, want %+v", label, got.Summary, want.Summary)
	}
	g, w := moduleWire(t, got), moduleWire(t, want)
	if len(g) != len(w) {
		t.Fatalf("%s: file count mismatch: %d vs %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: wire bytes differ for file %d\n  got: %s\n want: %s",
				label, i, g[i], w[i])
		}
	}
}

// TestModuleRunBatchReport: a module run returns a BatchReport whose
// Summary is the fold of its files' statuses, so ExitCode gives the
// batch run's 0/1/2 on a clean, a warned and a budget-degraded module,
// from both module entry points.
func TestModuleRunBatchReport(t *testing.T) {
	ctx := context.Background()
	warned := "proc p() {\n  var x: int = 0;\n  begin with (ref x) {\n    x = 1;\n  }\n}\n"
	for _, tc := range []struct {
		name   string
		src    string
		opts   []uafcheck.Option
		status string
		exit   int
	}{
		{"clean", "proc p() {\n  var x: int = 0;\n  x = 1;\n}\n", nil, "ok", 0},
		{"warned", warned, nil, "ok", 1},
		{"degraded", degradingSrc(), []uafcheck.Option{uafcheck.WithMaxStates(2)}, "degraded", 2},
	} {
		files := []uafcheck.FileInput{
			{Name: "a.chpl", Src: tc.src},
			{Name: "b.chpl", Src: "proc q() {\n  var y: int = 2;\n}\n"},
		}
		for _, run := range []struct {
			entry string
			call  func() (*uafcheck.BatchReport, error)
		}{
			{"AnalyzeModuleContext", func() (*uafcheck.BatchReport, error) {
				return uafcheck.AnalyzeModuleContext(ctx, files, tc.opts...)
			}},
			{"AnalyzeModuleDelta", func() (*uafcheck.BatchReport, error) {
				return uafcheck.NewAnalyzer().AnalyzeModuleDelta(ctx, files, tc.opts...)
			}},
		} {
			label := tc.name + "/" + run.entry
			rep, err := run.call()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got := rep.Files[0].Status; got != tc.status {
				t.Errorf("%s: a.chpl status %q, want %q", label, got, tc.status)
			}
			want := uafcheck.BatchSummary{Files: len(rep.Files)}
			for _, fr := range rep.Files {
				switch fr.Status {
				case "ok":
					want.OK++
				case "degraded":
					want.Degraded++
				default:
					t.Errorf("%s: %s: unexpected status %q", label, fr.Name, fr.Status)
				}
				for _, w := range fr.Report.Warnings {
					want.Warnings++
					if w.Conservative {
						want.Conservative++
					}
				}
			}
			if rep.Summary != want {
				t.Errorf("%s: summary %+v, want the files' fold %+v", label, rep.Summary, want)
			}
			if got := rep.ExitCode(); got != tc.exit {
				t.Errorf("%s: exit code %d, want %d", label, got, tc.exit)
			}
		}
	}
}

// TestAnalyzeModuleDeltaByteIdentity replaces random files of a module
// with regenerated bodies (procedure names are deterministic, so the
// link stays valid) and checks every warm snapshot matches a
// from-scratch run byte for byte.
func TestAnalyzeModuleDeltaByteIdentity(t *testing.T) {
	ctx := context.Background()
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(5000 + trial)))
			mopts := progen.ModuleOptions{Files: 3, Procs: 2, Atomics: trial%3 == 0}
			files := modFiles(progen.GenerateModule(rng.Int63(), mopts))
			an := uafcheck.NewAnalyzer()
			check := func(label string) {
				t.Helper()
				drep, derr := an.AnalyzeModuleDelta(ctx, files)
				frep, ferr := uafcheck.AnalyzeModuleContext(ctx, files)
				if derr != nil || ferr != nil {
					t.Fatalf("%s: delta err=%v fresh err=%v", label, derr, ferr)
				}
				requireModulesEqual(t, drep, frep, label)
			}
			check("cold")
			for edit := 0; edit < 4; edit++ {
				alt := progen.GenerateModule(rng.Int63(), mopts)
				i := rng.Intn(len(files))
				files[i].Src = alt[i].Src
				check(fmt.Sprintf("edit%d(%s)", edit, files[i].Name))
			}
			if st := an.Stats(); st.UnitHits == 0 {
				t.Errorf("expected unit hits across single-file edits, got %+v", st)
			}
		})
	}
}

// TestModuleDeltaGraphScopedInvalidation pins the invalidation
// granularity on a three-hop chain main -> mid -> leaf plus an
// unrelated procedure:
//
//   - an effect-preserving edit of leaf recomputes only leaf;
//   - an effect-changing edit of leaf recomputes leaf, mid, and main
//     (the summary change propagates along call-graph edges) but never
//     the unrelated file.
func TestModuleDeltaGraphScopedInvalidation(t *testing.T) {
	ctx := context.Background()
	files := []uafcheck.FileInput{
		{Name: "leaf.chpl", Src: "proc leaf(ref v: int) {\n  begin with (ref v) {\n    v = v + 1;\n  }\n}\n"},
		{Name: "mid.chpl", Src: "proc mid(ref w: int) {\n  leaf(w);\n}\n"},
		{Name: "main.chpl", Src: "proc main() {\n  var x: int = 0;\n  mid(x);\n}\n"},
		{Name: "other.chpl", Src: "proc other() {\n  var y: int = 0;\n  begin with (ref y) {\n    y = 1;\n  }\n}\n"},
	}
	an := uafcheck.NewAnalyzer()
	run := func(label string, wantMisses, wantHits int64) {
		t.Helper()
		before := an.Stats()
		drep, err := an.AnalyzeModuleDelta(ctx, files)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		frep, err := uafcheck.AnalyzeModuleContext(ctx, files)
		if err != nil {
			t.Fatalf("%s: fresh: %v", label, err)
		}
		requireModulesEqual(t, drep, frep, label)
		after := an.Stats()
		if m := after.UnitMisses - before.UnitMisses; m != wantMisses {
			t.Errorf("%s: unit misses = %d, want %d", label, m, wantMisses)
		}
		if h := after.UnitHits - before.UnitHits; h != wantHits {
			t.Errorf("%s: unit hits = %d, want %d", label, h, wantHits)
		}
	}

	// Four analysis roots: leaf and other have their own begins; mid and
	// main inherit an escaping task from leaf through the summaries.
	run("cold", 4, 0)
	run("unchanged", 0, 4)

	// Effect-preserving edit: leaf still escape-writes v, so its
	// boundary summary — and every caller's memo key — is unchanged.
	files[0].Src = "proc leaf(ref v: int) {\n  begin with (ref v) {\n    v = v + 2;\n  }\n}\n"
	run("effect-preserving callee edit", 1, 3)

	// Effect-changing edit: the escaping write becomes an escaping
	// read. leaf's summary changes, which changes mid's composed
	// summary, which changes main's callee view — all three recompute;
	// other.chpl stays hot.
	files[0].Src = "proc leaf(ref v: int) {\n  begin with (ref v) {\n    writeln(v);\n  }\n}\n"
	run("effect-changing callee edit", 3, 1)
}

// TestAnalyzeModuleDeltaConcurrent drives one Analyzer with alternating
// module snapshots from many goroutines — the uafserve /v1/delta module
// usage — and checks every interleaving matches the from-scratch bytes.
func TestAnalyzeModuleDeltaConcurrent(t *testing.T) {
	ctx := context.Background()
	base := progen.GenerateModule(99, progen.ModuleOptions{Files: 3, Procs: 2})
	snaps := make([][]uafcheck.FileInput, 4)
	want := make([][]string, len(snaps))
	for i := range snaps {
		files := modFiles(base)
		if i > 0 {
			alt := progen.GenerateModule(int64(100+i), progen.ModuleOptions{Files: 3, Procs: 2})
			files[i%len(files)].Src = alt[i%len(files)].Src
		}
		snaps[i] = files
		mrep, err := uafcheck.AnalyzeModuleContext(ctx, files)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = moduleWire(t, mrep)
	}
	an := uafcheck.NewAnalyzer()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				i := (g + k) % len(snaps)
				mrep, err := an.AnalyzeModuleDelta(ctx, snaps[i])
				if err != nil {
					errs <- err
					return
				}
				for fi, fr := range mrep.Files {
					b, err := wire.NewResult(fr.Name, fr.Report, fr.Err, false).Encode()
					if err != nil {
						errs <- err
						return
					}
					if string(b) != want[i][fi] {
						errs <- fmt.Errorf("goroutine %d snapshot %d file %d: wire bytes differ", g, i, fi)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestModuleDeltaReusedParseDiagnostics: a file served from the parse
// store gets its parse diagnostics back, and resolution adds its own to
// a fresh copy, so repeated delta calls over a snapshot that fails in
// the parser or in resolution give the one-shot error every time.
func TestModuleDeltaReusedParseDiagnostics(t *testing.T) {
	ctx := context.Background()
	good := uafcheck.FileInput{Name: "good.chpl", Src: "proc good() {\n  var x: int = 0;\n  begin with (ref x) {\n    x = 1;\n  }\n}\n"}
	for _, bad := range []uafcheck.FileInput{
		{Name: "parse.chpl", Src: "proc broken( {\n"},
		{Name: "unresolved.chpl", Src: "proc caller() {\n  var y: int = 0;\n  missing(y);\n}\n"},
	} {
		files := []uafcheck.FileInput{good, bad}
		_, want := uafcheck.AnalyzeModuleContext(ctx, files)
		if !errors.Is(want, uafcheck.ErrParse) {
			t.Fatalf("%s: one-shot err = %v, want ErrParse", bad.Name, want)
		}
		an := uafcheck.NewAnalyzer()
		for call := 0; call < 3; call++ {
			if _, err := an.AnalyzeModuleDelta(ctx, files); err == nil || err.Error() != want.Error() {
				t.Errorf("%s, call %d: err = %v, want %v", bad.Name, call, err, want)
			}
		}
	}
}
