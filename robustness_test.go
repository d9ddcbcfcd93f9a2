package uafcheck

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// pathologicalProgram builds a worst-case §III-C input: tasks begin
// blocks each performing ops sync-variable writes, all joined by the
// parent. The PPS exploration forks on every interleaving of the sync
// events, so states grow exponentially in tasks — (8, 4) is minutes of
// work unbounded, which the resource governor must cut short.
func pathologicalProgram(tasks, ops int) string {
	var b strings.Builder
	b.WriteString("proc main() {\n  var x: int = 0;\n")
	for i := 0; i < tasks; i++ {
		for j := 0; j < ops; j++ {
			fmt.Fprintf(&b, "  var s%d_%d$: sync bool;\n", i, j)
		}
	}
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&b, "  begin with (ref x) { x = %d;", i)
		for j := 0; j < ops; j++ {
			fmt.Fprintf(&b, " s%d_%d$ = true;", i, j)
		}
		b.WriteString(" }\n")
	}
	for i := 0; i < tasks; i++ {
		for j := 0; j < ops; j++ {
			fmt.Fprintf(&b, "  s%d_%d$;\n", i, j)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// warnKey identifies a warning independent of its Conservative flag and
// reason text, for superset comparisons across degraded and full runs.
func warnKey(w Warning) string {
	return fmt.Sprintf("%s|%s|%s|%d|%v", w.Proc, w.Task, w.Var, w.AccessLine, w.Write)
}

func TestDeadlineDegradesPromptly(t *testing.T) {
	src := pathologicalProgram(8, 4)
	const deadline = 50 * time.Millisecond
	start := time.Now()
	rep, err := AnalyzeContext(context.Background(), "patho.chpl", src, WithDeadline(deadline))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	// Acceptance bound is ~2x the deadline; the extra 100ms absorbs
	// scheduler noise on loaded CI machines, not analysis overrun (the
	// PPS loop polls the context every 64 states).
	if limit := 2*deadline + 100*time.Millisecond; elapsed > limit {
		t.Errorf("deadline %v: analysis returned after %v (limit %v)", deadline, elapsed, limit)
	}
	if rep.Degraded == nil {
		t.Fatal("deadline expired but Report.Degraded is nil")
	}
	if rep.Degraded.Reason != DegradeDeadline {
		t.Errorf("Degraded.Reason = %q, want %q", rep.Degraded.Reason, DegradeDeadline)
	}
	if len(rep.Degraded.Procs) == 0 {
		t.Error("Degraded.Procs empty")
	}
	if len(rep.Warnings) == 0 {
		t.Fatal("degraded run reported no conservative warnings")
	}
	for _, w := range rep.Warnings {
		if !w.Conservative {
			t.Errorf("degraded-run warning not marked conservative: %v", w)
		}
		if !strings.Contains(w.String(), "conservative") {
			t.Errorf("warning text does not mention degradation: %s", w)
		}
	}
}

func TestConservativeWarningsAreSuperset(t *testing.T) {
	// Small enough to explore fully (≈3k states), large enough that a
	// 50-state budget stops far short of completion.
	src := pathologicalProgram(5, 3)

	ctx := context.Background()
	full, err := AnalyzeContext(ctx, "patho.chpl", src)
	if err != nil {
		t.Fatal(err)
	}
	if full.Degraded != nil {
		t.Fatalf("full run unexpectedly degraded: %v", full.Degraded.Reason)
	}

	deg, err := AnalyzeContext(ctx, "patho.chpl", src, WithMaxStates(50))
	if err != nil {
		t.Fatal(err)
	}
	if deg.Degraded == nil || deg.Degraded.Reason != DegradeBudget {
		t.Fatalf("budget run Degraded = %+v, want reason %q", deg.Degraded, DegradeBudget)
	}

	got := make(map[string]bool, len(deg.Warnings))
	for _, w := range deg.Warnings {
		got[warnKey(w)] = true
	}
	for _, w := range full.Warnings {
		if !got[warnKey(w)] {
			t.Errorf("full-run warning missing from degraded run (soundness hole): %v", w)
		}
	}
	if len(deg.Warnings) < len(full.Warnings) {
		t.Errorf("degraded run reported %d warnings, full run %d", len(deg.Warnings), len(full.Warnings))
	}
}

func TestCancelledContextDegrades(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	rep, err := AnalyzeContext(ctx, "patho.chpl", pathologicalProgram(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("pre-cancelled context still took %v", elapsed)
	}
	if rep.Degraded == nil || rep.Degraded.Reason != DegradeCancelled {
		t.Fatalf("Degraded = %+v, want reason %q", rep.Degraded, DegradeCancelled)
	}
}

const warnSrc = `proc main() {
  var x: int = 0;
  begin with (ref x) { x = 1; }
}
`

const cleanSrc = `proc main() {
  var x: int = 0;
  var done$: sync bool;
  begin with (ref x) { x = 1; done$ = true; }
  done$;
}
`

func TestAnalyzeFilesExitCodes(t *testing.T) {
	cases := []struct {
		name  string
		files []FileInput
		opts  []Option
		want  int
	}{
		{"clean", []FileInput{{"c.chpl", cleanSrc}}, nil, 0},
		{"warnings", []FileInput{{"w.chpl", warnSrc}, {"c.chpl", cleanSrc}}, nil, 1},
		{"degraded", []FileInput{{"p.chpl", pathologicalProgram(8, 4)}},
			[]Option{WithDeadline(30 * time.Millisecond)}, 2},
		{"errors", []FileInput{{"bad.chpl", "proc ( nope"}, {"w.chpl", warnSrc}}, nil, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := AnalyzeFilesContext(context.Background(), tc.files, tc.opts...)
			if got := rep.ExitCode(); got != tc.want {
				t.Errorf("ExitCode() = %d, want %d (summary %+v)", got, tc.want, rep.Summary)
			}
		})
	}
}

// TestAnalyzeFilesConcurrent drives a mixed batch through several
// workers, each file on its own recorder — the scenario the -race run
// certifies (see Makefile test-race).
func TestAnalyzeFilesConcurrent(t *testing.T) {
	var files []FileInput
	for i := 0; i < 6; i++ {
		files = append(files,
			FileInput{fmt.Sprintf("clean%d.chpl", i), cleanSrc},
			FileInput{fmt.Sprintf("warn%d.chpl", i), warnSrc})
	}
	files = append(files,
		FileInput{"patho.chpl", pathologicalProgram(8, 4)},
		FileInput{"broken.chpl", "proc ( nope"})

	rep := AnalyzeFilesContext(context.Background(), files,
		WithWorkers(4),
		WithDeadline(40*time.Millisecond))

	if len(rep.Files) != len(files) {
		t.Fatalf("got %d file reports for %d inputs", len(rep.Files), len(files))
	}
	for i, fr := range rep.Files {
		if fr.Name != files[i].Name {
			t.Errorf("report %d is for %q, want %q (index alignment broken)", i, fr.Name, files[i].Name)
		}
	}
	s := rep.Summary
	// OK counts complete analyses — the clean files and the warning
	// files both finish; warnings don't degrade a result.
	if s.OK != 12 {
		t.Errorf("OK = %d, want 12", s.OK)
	}
	if s.Warnings < 6 {
		t.Errorf("Warnings = %d, want >= 6", s.Warnings)
	}
	if s.Errors != 1 {
		t.Errorf("Errors = %d, want 1", s.Errors)
	}
	if s.Degradations() != 1 {
		t.Errorf("Degradations() = %d, want 1 (summary %+v)", s.Degradations(), s)
	}
	if got := rep.ExitCode(); got != 3 {
		t.Errorf("ExitCode() = %d, want 3", got)
	}
	for _, fr := range rep.Files {
		if fr.Name == "broken.chpl" {
			if !errors.Is(fr.Err, ErrParse) {
				t.Errorf("broken.chpl Err = %v, want ErrParse", fr.Err)
			}
		} else if fr.Report == nil {
			t.Errorf("%s: nil report", fr.Name)
		}
	}
	if rep.Metrics.Counter("batch.files") != int64(len(files)) {
		t.Errorf("batch.files counter = %d, want %d", rep.Metrics.Counter("batch.files"), len(files))
	}
}
