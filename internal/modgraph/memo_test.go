package modgraph_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"uafcheck"
	"uafcheck/internal/modgraph"
	"uafcheck/internal/parser"
	"uafcheck/internal/source"
	"uafcheck/internal/wire"
)

// memoBase is the module every memo case edits: a chain main -> mid ->
// leaf, where leaf's task escapes to both callers, plus a procedure
// reading a config const.
var memoBase = [][2]string{
	{"leaf.chpl", "proc leaf(ref v: int, n: int) {\n  begin with (ref v) {\n    v = v + 1;\n  }\n}\n"},
	{"mid.chpl", "proc mid(ref w: int) {\n  leaf(w, 1);\n}\n"},
	{"main.chpl", "proc main() {\n  var x: int = 0;\n  mid(x);\n}\n"},
	{"conf.chpl", "config const limit: int = 3;\nproc reads() {\n  var y: int = limit;\n  begin with (ref y) {\n    y = 1;\n  }\n}\n"},
}

// summarize parses, resolves and summarizes files through memo.
func summarize(t *testing.T, memo *modgraph.Memo, files [][2]string) *modgraph.Graph {
	t.Helper()
	var mfs []*modgraph.File
	for _, f := range files {
		sf := source.NewFile(f[0], f[1])
		diags := &source.Diagnostics{}
		mod := parser.Parse(sf, diags)
		mfs = append(mfs, &modgraph.File{Name: f[0], Src: sf, Mod: mod, Diags: diags})
	}
	g := modgraph.Resolve(mfs)
	for _, f := range g.Files {
		if f.Diags.HasErrors() {
			t.Fatalf("%s: frontend errors:\n%s", f.Name, f.Diags)
		}
	}
	g.Summarize(memo)
	return g
}

// summaryTable renders every procedure's fingerprint and HasTask bit,
// keyed by file and name, so graphs over different parses compare.
func summaryTable(g *modgraph.Graph) []string {
	var out []string
	for _, f := range g.Files {
		for _, p := range f.Mod.Procs {
			task := ""
			if g.HasTask[p] {
				task = " task"
			}
			out = append(out, g.SummaryFingerprint(p)+task)
		}
	}
	return out
}

// TestSummaryMemoLowersOnlyChangedInputs: after a warm-up over
// memoBase, each edit re-lowers exactly the procedures whose lowering
// inputs changed, the summaries equal a run without the memo, and the
// module's reports through a warm Analyzer stay byte-identical to a
// one-shot run.
func TestSummaryMemoLowersOnlyChangedInputs(t *testing.T) {
	cases := []struct {
		name string
		edit func(files [][2]string) [][2]string
		// lowered names the procedures the edit must re-lower.
		lowered []string
	}{
		{"unchanged", func(fs [][2]string) [][2]string { return fs }, nil},
		{"callee edit keeping its summary", func(fs [][2]string) [][2]string {
			fs[0][1] = strings.Replace(fs[0][1], "v + 1", "v + 2", 1)
			return fs
		}, []string{"leaf"}},
		// The escaping write becomes an escaping read: leaf's summary
		// changes, so mid's does, so main's callee view does.
		{"callee edit changing its summary", func(fs [][2]string) [][2]string {
			fs[0][1] = strings.Replace(fs[0][1], "v = v + 1;", "writeln(v);", 1)
			return fs
		}, []string{"leaf", "mid", "main"}},
		// n is untouched either way, so leaf's effects stay the same;
		// lowering mid reads leaf's intents, so mid re-lowers too, and
		// its own summary, which main reads, is unchanged.
		{"callee formal flipped from value to ref", func(fs [][2]string) [][2]string {
			fs[0][1] = strings.Replace(fs[0][1], "n: int", "ref n: int", 1)
			return fs
		}, []string{"leaf", "mid"}},
		// Lowering reads a config const's kind and type qualifier, not
		// its value, so a new value lowers nothing (the unit memo keys
		// on the value and re-runs reads' unit).
		{"config const value", func(fs [][2]string) [][2]string {
			fs[3][1] = strings.Replace(fs[3][1], "= 3;", "= 4;", 1)
			return fs
		}, nil},
		// An atomic config read lowers to an atomic op.
		{"config const type", func(fs [][2]string) [][2]string {
			fs[3][1] = strings.Replace(fs[3][1], "limit: int = 3", "limit: atomic int", 1)
			return fs
		}, []string{"reads"}},
		// leaf's slot is new, and mid's callee fingerprint names leaf's
		// file; mid's own summary, which main reads, is unchanged.
		{"callee moved to another file", func(fs [][2]string) [][2]string {
			fs[1][1] += fs[0][1]
			fs[0][1] = ""
			return fs
		}, []string{"leaf", "mid"}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			memo := &modgraph.Memo{}
			base := slices.Clone(memoBase)
			if g := summarize(t, memo, base); g.Lowerings() != 4 {
				t.Fatalf("warm-up lowered %d procedures, want all 4", g.Lowerings())
			}
			an := uafcheck.NewAnalyzer()
			requireModuleBytes(t, ctx, an, base, "warm-up")

			edited := tc.edit(slices.Clone(memoBase))
			g := summarize(t, memo, edited)
			fresh := summarize(t, nil, edited)
			if got, want := summaryTable(g), summaryTable(fresh); !slices.Equal(got, want) {
				t.Errorf("summaries through the memo = %q, want %q", got, want)
			}
			if g.Lowerings() != len(tc.lowered) {
				t.Errorf("lowered %d procedures, want %d (%v)", g.Lowerings(), len(tc.lowered), tc.lowered)
			}
			if n := memo.Len(); n != len(g.DeclFile) {
				t.Errorf("memo holds %d entries, want one per procedure (%d)", n, len(g.DeclFile))
			}
			requireModuleBytes(t, ctx, an, edited, "edited")
		})
	}
}

// requireModuleBytes runs files through the Analyzer and through a
// one-shot run and requires the same wire bytes for every file.
func requireModuleBytes(t *testing.T, ctx context.Context, an *uafcheck.Analyzer, files [][2]string, label string) {
	t.Helper()
	mfs := make([]uafcheck.FileInput, len(files))
	for i, f := range files {
		mfs[i] = uafcheck.FileInput{Name: f[0], Src: f[1]}
	}
	drep, derr := an.AnalyzeModuleDelta(ctx, mfs)
	frep, ferr := uafcheck.AnalyzeModuleContext(ctx, mfs)
	if derr != nil || ferr != nil {
		t.Fatalf("%s: delta err=%v, one-shot err=%v", label, derr, ferr)
	}
	for i := range mfs {
		d, err := wire.NewResult(drep.Files[i].Name, drep.Files[i].Report, drep.Files[i].Err, false).Encode()
		if err != nil {
			t.Fatal(err)
		}
		f, err := wire.NewResult(frep.Files[i].Name, frep.Files[i].Report, frep.Files[i].Err, false).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(d) != string(f) {
			t.Errorf("%s: %s wire bytes differ\n got: %s\nwant: %s", label, mfs[i].Name, d, f)
		}
	}
}
