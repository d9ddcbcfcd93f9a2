package udiff

import (
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnifiedBasic(t *testing.T) {
	a := "one\ntwo\nthree\nfour\nfive\nsix\nseven\neight\n"
	b := "one\ntwo\nTHREE\nfour\nfive\nsix\nseven\neight\n"
	got := Unified("f.chpl", a, b)
	want := strings.Join([]string{
		"--- a/f.chpl",
		"+++ b/f.chpl",
		"@@ -1,6 +1,6 @@",
		" one",
		" two",
		"-three",
		"+THREE",
		" four",
		" five",
		" six",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("diff mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestUnifiedIdentical(t *testing.T) {
	if d := Unified("f", "same\n", "same\n"); d != "" {
		t.Fatalf("identical inputs produced a diff: %q", d)
	}
}

func TestUnifiedInsertionDeletion(t *testing.T) {
	a := "a\nb\nc\n"
	b := "a\nb\nx\ny\nc\n"
	if got, err := Apply(a, Unified("f", a, b)); err != nil || got != b {
		t.Fatalf("insert round-trip: got %q err %v", got, err)
	}
	if got, err := Apply(b, Unified("f", b, a)); err != nil || got != a {
		t.Fatalf("delete round-trip: got %q err %v", got, err)
	}
}

func TestUnifiedNoFinalNewline(t *testing.T) {
	cases := []struct{ a, b string }{
		{"a\nb", "a\nb\n"}, // gains a newline
		{"a\nb\n", "a\nb"}, // loses a newline
		{"a\nb", "a\nc"},   // both unterminated
		{"x", "y\n"},       // single line each way
		{"", "a\nb"},       // from empty
		{"a\nb", ""},       // to empty
	}
	for _, c := range cases {
		d := Unified("f", c.a, c.b)
		got, err := Apply(c.a, d)
		if err != nil {
			t.Fatalf("Apply(%q, %q): %v", c.a, d, err)
		}
		if got != c.b {
			t.Fatalf("round-trip %q -> %q: got %q via\n%s", c.a, c.b, got, d)
		}
		if !strings.Contains(c.a+c.b, "\n") || !strings.HasSuffix(c.a, "\n") || !strings.HasSuffix(c.b, "\n") {
			if c.a != "" && c.b != "" && !strings.Contains(d, `\ No newline at end of file`) &&
				(!strings.HasSuffix(c.a, "\n") || !strings.HasSuffix(c.b, "\n")) {
				t.Fatalf("diff %q -> %q lacks no-newline marker:\n%s", c.a, c.b, d)
			}
		}
	}
}

func TestEdits(t *testing.T) {
	a := "a\nb\nc\nd\n"
	b := "a\nX\nY\nc\nd\nZ\n"
	edits := Edits(a, b)
	if len(edits) != 2 {
		t.Fatalf("want 2 edits, got %+v", edits)
	}
	if e := edits[0]; e.StartA != 2 || e.EndA != 2 || strings.Join(e.Inserted, ",") != "X,Y" {
		t.Fatalf("edit 0 mismatch: %+v", e)
	}
	// Pure insertion after line 4: empty a-range before line 5.
	if e := edits[1]; e.StartA != 5 || e.EndA != 4 || strings.Join(e.Inserted, ",") != "Z" {
		t.Fatalf("edit 1 mismatch: %+v", e)
	}
}

// TestApplyRandomized is the property check: for random line
// mutations, Apply(a, Unified(a, b)) must reconstruct b exactly.
func TestApplyRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := []string{"var x = 1;", "begin { f(); }", "sync {", "}", "writeln(x);", "x$ = 1;", ""}
	randDoc := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte('\n')
		}
		s := sb.String()
		if rng.Intn(4) == 0 {
			s = strings.TrimSuffix(s, "\n")
		}
		return s
	}
	for trial := 0; trial < 200; trial++ {
		a := randDoc(rng.Intn(30))
		b := randDoc(rng.Intn(30))
		d := Unified("f", a, b)
		got, err := Apply(a, d)
		if err != nil {
			t.Fatalf("trial %d: apply error %v on diff:\n%s", trial, err, d)
		}
		if got != b {
			t.Fatalf("trial %d: round-trip mismatch\na=%q\nb=%q\ngot=%q\ndiff:\n%s", trial, a, b, got, d)
		}
	}
}

// TestPatchCompat shells out to patch(1) — the acceptance criterion is
// that emitted diffs apply cleanly with the real tool, not just our
// own Apply. Skipped when patch is not installed.
func TestPatchCompat(t *testing.T) {
	patchBin, err := exec.LookPath("patch")
	if err != nil {
		t.Skip("patch(1) not installed")
	}
	cases := []struct{ a, b string }{
		{
			"proc f() {\n  var x = 1;\n  begin { writeln(x); }\n}\nf();\n",
			"proc f() {\n  var x = 1;\n  var x_done$: sync bool;\n  begin { writeln(x); x_done$ = true; }\n  x_done$;\n}\nf();\n",
		},
		{"a\nb\nc\n", "a\nc\n"},
		{"a\nb", "a\nb\nc\n"},
		{"x\n", "y"},
	}
	for i, c := range cases {
		// patch -p1 strips the leading a/ and b/ from the diff
		// headers, so the target lives at the root of the work dir.
		dir := t.TempDir()
		file := filepath.Join(dir, "f.chpl")
		if err := os.WriteFile(file, []byte(c.a), 0o644); err != nil {
			t.Fatal(err)
		}
		d := Unified("f.chpl", c.a, c.b)
		cmd := exec.Command(patchBin, "-p1", "--no-backup-if-mismatch")
		cmd.Dir = dir
		cmd.Stdin = strings.NewReader(d)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("case %d: patch failed: %v\n%s\ndiff:\n%s", i, err, out, d)
		}
		got, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.b {
			t.Fatalf("case %d: patch produced %q, want %q", i, got, c.b)
		}
	}
}
