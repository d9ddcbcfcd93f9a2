package batch

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"uafcheck/internal/analysis"
	"uafcheck/internal/fault"
	"uafcheck/internal/obs"
	"uafcheck/internal/pps"
)

const cleanSrc = `proc main() {
  var x: int = 0;
  var done$: sync bool;
  begin with (ref x) { x = 1; done$ = true; }
  done$;
}
`

const warnSrc = `proc main() {
  var x: int = 0;
  begin with (ref x) { x = 1; }
}
`

// pathoSrc explodes combinatorially: 8 tasks x 4 sync writes each.
var pathoSrc = func() string {
	var b strings.Builder
	b.WriteString("proc main() {\n  var x: int = 0;\n")
	for i := 0; i < 8; i++ {
		for j := 0; j < 4; j++ {
			fmt.Fprintf(&b, "  var s%d_%d$: sync bool;\n", i, j)
		}
	}
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, "  begin with (ref x) { x = %d;", i)
		for j := 0; j < 4; j++ {
			fmt.Fprintf(&b, " s%d_%d$ = true;", i, j)
		}
		b.WriteString(" }\n")
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 4; j++ {
			fmt.Fprintf(&b, "  s%d_%d$;\n", i, j)
		}
	}
	b.WriteString("}\n")
	return b.String()
}()

func TestRunMixedBatch(t *testing.T) {
	files := []File{
		{Name: "clean.chpl", Src: cleanSrc},
		{Name: "warn.chpl", Src: warnSrc},
		{Name: "broken.chpl", Src: "proc ( nope"},
		{Name: "budget.chpl", Src: pathoSrc},
	}
	opts := Options{Workers: 4, Analysis: analysis.DefaultOptions()}
	opts.Analysis.PPS.MaxStates = 200 // forces budget.chpl onto the degradation ladder

	results, sum := Run(files, opts)
	if len(results) != len(files) {
		t.Fatalf("got %d results for %d files", len(results), len(files))
	}
	wantStatus := map[string]Status{
		"clean.chpl":  OK,
		"warn.chpl":   OK,
		"broken.chpl": FrontendError,
		"budget.chpl": Degraded,
	}
	for i, r := range results {
		if r.File.Name != files[i].Name || r.Index != i {
			t.Errorf("result %d misaligned: %s/%d", i, r.File.Name, r.Index)
		}
		if want := wantStatus[r.File.Name]; r.Status != want {
			t.Errorf("%s: status %v, want %v", r.File.Name, r.Status, want)
		}
	}
	if sum.Files != 4 || sum.OK != 2 || sum.Errors != 1 || sum.Degraded != 1 {
		t.Errorf("summary %+v", sum)
	}
	if sum.Degradations() != 1 {
		t.Errorf("Degradations() = %d, want 1", sum.Degradations())
	}
	for _, r := range results {
		if r.File.Name == "budget.chpl" {
			if r.Stop != pps.StopBudget {
				t.Errorf("budget.chpl Stop = %q, want %q", r.Stop, pps.StopBudget)
			}
			if r.Conservative == 0 {
				t.Error("budget.chpl has no conservative warnings")
			}
		}
		if r.File.Name == "warn.chpl" && r.Warnings == 0 {
			t.Error("warn.chpl reported no warnings")
		}
	}
}

func TestTimeoutRetryLadder(t *testing.T) {
	files := []File{{Name: "patho.chpl", Src: pathoSrc}}
	results, sum := Run(files, Options{
		FileTimeout: 25 * time.Millisecond,
		Retries:     2,
		Analysis:    analysis.DefaultOptions(),
	})
	r := results[0]
	// Every attempt hits the wall clock before its (still huge) state
	// budget, so the ladder runs all rungs and the file stays TimedOut.
	if r.Status != TimedOut {
		t.Errorf("status %v, want %v", r.Status, TimedOut)
	}
	if r.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", r.Attempts)
	}
	if sum.Retries != 2 {
		t.Errorf("Summary.Retries = %d, want 2", sum.Retries)
	}
}

func TestRetryConvergesToBudget(t *testing.T) {
	files := []File{{Name: "patho.chpl", Src: pathoSrc}}
	opts := Options{
		FileTimeout:  40 * time.Millisecond,
		Retries:      3,
		BudgetShrink: 64,
		Analysis:     analysis.DefaultOptions(),
	}
	opts.Analysis.PPS.MaxStates = 1 << 16
	results, _ := Run(files, opts)
	r := results[0]
	// 65536 states outrun a 40ms clock, but 1024 (two 64x rungs) do not:
	// the wall-clock timeout converges to a deterministic budget stop.
	if r.Status != Degraded {
		t.Fatalf("status %v (stop %q) after %d attempts, want %v", r.Status, r.Stop, r.Attempts, Degraded)
	}
	if r.Stop != pps.StopBudget {
		t.Errorf("Stop = %q, want %q", r.Stop, pps.StopBudget)
	}
	if r.Attempts < 2 {
		t.Errorf("Attempts = %d, want >= 2", r.Attempts)
	}
}

// TestHardHangAbandoned drives the abandon branch of the attempt
// supervisor: an injected stall is a plain sleep that ignores the
// attempt's context, so only the timeout-plus-grace watchdog gets the
// worker back. The test arms the global injector and must not run in
// parallel with other tests.
func TestHardHangAbandoned(t *testing.T) {
	const stall = 3 * time.Second
	files := []File{{Name: "clean.chpl", Src: cleanSrc}}
	for _, tc := range []struct {
		retries int
		want    Status
		hung    bool
	}{
		{retries: 0, want: TimedOut, hung: true},
		// The stall fires once; the retry runs the pipeline normally.
		{retries: 1, want: OK, hung: false},
	} {
		restore := fault.Set(fault.New(3, fault.Rule{
			Point: fault.AnalysisDelay, Mode: fault.ModeDelay, Prob: 1, Count: 1, Delay: stall,
		}))
		start := time.Now()
		results, sum := Run(files, Options{
			FileTimeout: 20 * time.Millisecond,
			Retries:     tc.retries,
			Analysis:    analysis.DefaultOptions(),
		})
		elapsed := time.Since(start)
		restore()
		r := results[0]
		if r.Status != tc.want || r.Hung != tc.hung {
			t.Errorf("retries=%d: status %v hung %v, want %v hung %v", tc.retries, r.Status, r.Hung, tc.want, tc.hung)
		}
		if tc.hung {
			if r.Res != nil {
				t.Errorf("retries=%d: abandoned attempt left a result", tc.retries)
			}
			if sum.Hung != 1 {
				t.Errorf("retries=%d: Summary.Hung = %d, want 1", tc.retries, sum.Hung)
			}
		}
		if elapsed > stall/2 {
			t.Errorf("retries=%d: Run took %v, waited out the %v stall", tc.retries, elapsed, stall)
		}
	}
}

func TestBatchContextCancelsPendingFiles(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var files []File
	for i := 0; i < 8; i++ {
		files = append(files, File{Name: fmt.Sprintf("f%d.chpl", i), Src: pathoSrc})
	}
	start := time.Now()
	results, sum := Run(files, Options{Workers: 2, Ctx: ctx, Analysis: analysis.DefaultOptions()})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled batch still took %v", elapsed)
	}
	if len(results) != len(files) {
		t.Fatalf("cancelled batch dropped results: %d/%d", len(results), len(files))
	}
	for _, r := range results {
		if r.Res == nil {
			t.Errorf("%s: no result despite cooperative cancellation", r.File.Name)
		}
		if r.Status == OK {
			t.Errorf("%s: OK under a dead context", r.File.Name)
		}
	}
	if sum.Degradations() != len(files) {
		t.Errorf("Degradations() = %d, want %d", sum.Degradations(), len(files))
	}
}

func TestBatchObsCounters(t *testing.T) {
	rec := obs.New()
	perFile := make([]*obs.Recorder, 2)
	files := []File{
		{Name: "clean.chpl", Src: cleanSrc},
		{Name: "warn.chpl", Src: warnSrc},
	}
	_, _ = Run(files, Options{
		Workers:  2,
		Analysis: analysis.DefaultOptions(),
		Obs:      rec,
		PerFileObs: func(i int, f File) *obs.Recorder {
			perFile[i] = obs.New()
			return perFile[i]
		},
	})
	m := rec.Snapshot()
	if m.Counter(obs.CtrBatchFiles) != 2 || m.Counter(obs.CtrBatchOK) != 2 {
		t.Errorf("batch counters: files=%d ok=%d", m.Counter(obs.CtrBatchFiles), m.Counter(obs.CtrBatchOK))
	}
	if m.PhaseTotal(obs.PhaseBatch) <= 0 {
		t.Error("no batch span recorded")
	}
	for i, r := range perFile {
		if r == nil {
			t.Fatalf("PerFileObs not called for file %d", i)
		}
		if r.Snapshot().Counter(obs.CtrProcsAnalyzed) == 0 {
			t.Errorf("file %d recorder saw no analysis counters", i)
		}
	}
}

func TestOnResultStreamsEveryFile(t *testing.T) {
	files := []File{
		{Name: "clean.chpl", Src: cleanSrc},
		{Name: "warn.chpl", Src: warnSrc},
		{Name: "broken.chpl", Src: "proc ( nope"},
	}
	var mu sync.Mutex
	seen := map[int]Result{}
	results, _ := Run(files, Options{
		Workers:  3,
		Analysis: analysis.DefaultOptions(),
		OnResult: func(r Result) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := seen[r.Index]; dup {
				t.Errorf("OnResult fired twice for index %d", r.Index)
			}
			seen[r.Index] = r
		},
	})
	if len(seen) != len(files) {
		t.Fatalf("OnResult fired %d times, want %d", len(seen), len(files))
	}
	// The streamed results must be the same values that land in the
	// final slice — index, status and report alike.
	for i, r := range results {
		s := seen[i]
		if s.File.Name != r.File.Name || s.Status != r.Status || s.Res != r.Res {
			t.Errorf("index %d: streamed %v/%p, final %v/%p",
				i, s.Status, s.Res, r.Status, r.Res)
		}
	}
}
