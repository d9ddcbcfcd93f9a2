package batch

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// file is one test input.
type file struct{ name, src string }

// runAnalysis runs files through Run with the analysis pipeline as the
// attempt and gradeAnalysis as the grader. perFile, when set, supplies
// each file's telemetry recorder.
func runAnalysis(files []file, opts Options, aopts analysis.Options, perFile func(i int) *obs.Recorder,
	onResult func(Result[*analysis.Result])) ([]Result[*analysis.Result], Summary) {
	opts.MaxStates = aopts.PPS.MaxStates
	weights := make([]int, len(files))
	for i, f := range files {
		weights[i] = len(f.src)
	}
	return Run(weights, opts, func(ctx context.Context, i, maxStates int) *analysis.Result {
		o := aopts
		o.Ctx = ctx
		o.PPS.MaxStates = maxStates
		if perFile != nil {
			o.Obs = perFile(i)
		}
		return analysis.AnalyzeSource(files[i].name, files[i].src, o)
	}, gradeAnalysis, onResult)
}

// gradeAnalysis grades one analysis result: a frontend rejection
// fails, otherwise the degradation ladder's stop reason picks the
// class.
func gradeAnalysis(ar *analysis.Result) Grade {
	if ar.Diags.HasErrors() {
		return Grade{Status: Failed}
	}
	g := Grade{Status: StatusFor(ar.Degraded())}
	for _, w := range ar.Warnings() {
		g.Warnings++
		if w.Conservative {
			g.Conservative++
		}
	}
	return g
}

func TestRunMixedBatch(t *testing.T) {
	files := []file{
		{"clean.chpl", cleanSrc},
		{"warn.chpl", warnSrc},
		{"broken.chpl", "proc ( nope"},
		{"budget.chpl", pathoSrc},
	}
	aopts := analysis.DefaultOptions()
	aopts.PPS.MaxStates = 200 // forces budget.chpl onto the degradation ladder

	results, sum := runAnalysis(files, Options{Workers: 4}, aopts, nil, nil)
	if len(results) != len(files) {
		t.Fatalf("got %d results for %d files", len(results), len(files))
	}
	wantStatus := map[string]Status{
		"clean.chpl":  OK,
		"warn.chpl":   OK,
		"broken.chpl": Failed,
		"budget.chpl": Degraded,
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d misaligned: index %d", i, r.Index)
		}
		if want := wantStatus[files[i].name]; r.Status != want {
			t.Errorf("%s: status %v, want %v", files[i].name, r.Status, want)
		}
	}
	if sum.Files != 4 || sum.OK != 2 || sum.Errors != 1 || sum.Degraded != 1 {
		t.Errorf("summary %+v", sum)
	}
	if sum.Degradations() != 1 {
		t.Errorf("Degradations() = %d, want 1", sum.Degradations())
	}
	if stop := results[3].Value.Degraded(); stop != pps.StopBudget {
		t.Errorf("budget.chpl stop = %q, want %q", stop, pps.StopBudget)
	}
	if results[3].Conservative == 0 {
		t.Error("budget.chpl has no conservative warnings")
	}
	if results[1].Warnings == 0 {
		t.Error("warn.chpl reported no warnings")
	}
}

func TestTimeoutRetryLadder(t *testing.T) {
	files := []file{{"patho.chpl", pathoSrc}}
	results, sum := runAnalysis(files, Options{
		FileTimeout: 25 * time.Millisecond,
		Retries:     2,
	}, analysis.DefaultOptions(), nil, nil)
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
	files := []file{{"patho.chpl", pathoSrc}}
	aopts := analysis.DefaultOptions()
	aopts.PPS.MaxStates = 1 << 16
	results, _ := runAnalysis(files, Options{
		FileTimeout: 40 * time.Millisecond,
		Retries:     6,
	}, aopts, nil, nil)
	r := results[0]
	// 65536 states outrun a 40ms clock, but the 4x rungs (16384, 4096,
	// ... down to 16) reach a budget that does not: the wall-clock
	// timeout converges to a deterministic budget stop.
	if r.Status != Degraded {
		t.Fatalf("status %v after %d attempts, want %v", r.Status, r.Attempts, Degraded)
	}
	if stop := r.Value.Degraded(); stop != pps.StopBudget {
		t.Errorf("stop = %q, want %q", stop, pps.StopBudget)
	}
	if r.Attempts < 2 {
		t.Errorf("Attempts = %d, want >= 2", r.Attempts)
	}
}

// TestHardHangAbandoned drives the abandon branch of the attempt
// supervisor: an injected stall is a plain sleep that ignores the
// attempt's context, so only the timeout-plus-grace watchdog gets the
// worker back, and the file fails without a value. The test arms the
// global injector and must not run in parallel with other tests.
func TestHardHangAbandoned(t *testing.T) {
	const stall = 3 * time.Second
	files := []file{{"clean.chpl", cleanSrc}}
	for _, tc := range []struct {
		retries int
		want    Status
		hung    bool
	}{
		{retries: 0, want: Failed, hung: true},
		// The stall fires once; the retry runs the pipeline normally.
		{retries: 1, want: OK, hung: false},
	} {
		restore := fault.Set(fault.New(3, fault.Rule{
			Point: fault.AnalysisDelay, Mode: fault.ModeDelay, Prob: 1, Count: 1, Delay: stall,
		}))
		start := time.Now()
		results, sum := runAnalysis(files, Options{
			FileTimeout: 20 * time.Millisecond,
			Retries:     tc.retries,
		}, analysis.DefaultOptions(), nil, nil)
		elapsed := time.Since(start)
		restore()
		r := results[0]
		if r.Status != tc.want || r.Hung != tc.hung {
			t.Errorf("retries=%d: status %v hung %v, want %v hung %v", tc.retries, r.Status, r.Hung, tc.want, tc.hung)
		}
		if tc.hung {
			if r.Value != nil {
				t.Errorf("retries=%d: abandoned attempt left a result", tc.retries)
			}
			if sum.Hung != 1 || sum.Errors != 1 {
				t.Errorf("retries=%d: Summary.Hung = %d, Errors = %d, want 1 and 1", tc.retries, sum.Hung, sum.Errors)
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
	var files []file
	for i := 0; i < 8; i++ {
		files = append(files, file{fmt.Sprintf("f%d.chpl", i), pathoSrc})
	}
	start := time.Now()
	results, sum := runAnalysis(files, Options{Workers: 2, Ctx: ctx}, analysis.DefaultOptions(), nil, nil)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled batch still took %v", elapsed)
	}
	if len(results) != len(files) {
		t.Fatalf("cancelled batch dropped results: %d/%d", len(results), len(files))
	}
	for i, r := range results {
		if r.Value == nil {
			t.Errorf("%s: no result despite cooperative cancellation", files[i].name)
		}
		if r.Status == OK {
			t.Errorf("%s: OK under a dead context", files[i].name)
		}
	}
	if sum.Degradations() != len(files) {
		t.Errorf("Degradations() = %d, want %d", sum.Degradations(), len(files))
	}
}

func TestBatchObsCounters(t *testing.T) {
	rec := obs.New()
	perFile := make([]*obs.Recorder, 2)
	files := []file{
		{"clean.chpl", cleanSrc},
		{"warn.chpl", warnSrc},
	}
	_, _ = runAnalysis(files, Options{Workers: 2, Obs: rec}, analysis.DefaultOptions(),
		func(i int) *obs.Recorder {
			perFile[i] = obs.New()
			return perFile[i]
		}, nil)
	m := rec.Snapshot()
	if m.Counter(obs.CtrBatchFiles) != 2 || m.Counter(obs.CtrBatchOK) != 2 {
		t.Errorf("batch counters: files=%d ok=%d", m.Counter(obs.CtrBatchFiles), m.Counter(obs.CtrBatchOK))
	}
	if m.PhaseTotal(obs.PhaseBatch) <= 0 {
		t.Error("no batch span recorded")
	}
	for i, r := range perFile {
		if r == nil {
			t.Fatalf("no attempt ran for file %d", i)
		}
		if r.Snapshot().Counter(obs.CtrProcsAnalyzed) == 0 {
			t.Errorf("file %d recorder saw no analysis counters", i)
		}
	}
}

func TestOnResultStreamsEveryFile(t *testing.T) {
	files := []file{
		{"clean.chpl", cleanSrc},
		{"warn.chpl", warnSrc},
		{"broken.chpl", "proc ( nope"},
	}
	var mu sync.Mutex
	seen := map[int]Result[*analysis.Result]{}
	results, _ := runAnalysis(files, Options{Workers: 3}, analysis.DefaultOptions(), nil,
		func(r Result[*analysis.Result]) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := seen[r.Index]; dup {
				t.Errorf("onResult fired twice for index %d", r.Index)
			}
			seen[r.Index] = r
		})
	if len(seen) != len(files) {
		t.Fatalf("onResult fired %d times, want %d", len(seen), len(files))
	}
	// The streamed results must be the same values that land in the
	// final slice — index, status and report alike.
	for i, r := range results {
		s := seen[i]
		if s.Index != r.Index || s.Status != r.Status || s.Value != r.Value {
			t.Errorf("index %d: streamed %v/%p, final %v/%p",
				i, s.Status, s.Value, r.Status, r.Value)
		}
	}
}

// TestDispatchOrder records the order in which the pool claims files.
// Every attempt blocks until the test releases one of them, so after
// the first Workers claims exactly one worker is free at a time and
// each further claim is deterministic. A pool of two claims heaviest
// first, ties in input order; one worker claims in input order.
func TestDispatchOrder(t *testing.T) {
	weights := []int{3, 9, 1, 9, 5, 0, 7, 5}
	for _, tc := range []struct {
		workers int
		want    []int
	}{
		{1, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{2, []int{1, 3, 6, 4, 7, 0, 2, 5}},
	} {
		claimed := make(chan int)
		release := make(chan struct{})
		done := make(chan []Result[int])
		go func() {
			results, _ := Run(weights, Options{Workers: tc.workers}, func(_ context.Context, i, _ int) int {
				claimed <- i
				<-release
				return i
			}, func(int) Grade { return Grade{Status: OK} }, nil)
			done <- results
		}()
		recv := func() int {
			select {
			case i := <-claimed:
				return i
			case <-time.After(10 * time.Second):
				t.Fatalf("workers=%d: no claim within 10s", tc.workers)
				return -1
			}
		}
		var got []int
		for range tc.workers {
			got = append(got, recv())
		}
		for len(got) < len(weights) {
			release <- struct{}{}
			got = append(got, recv())
		}
		for range tc.workers {
			release <- struct{}{}
		}
		results := <-done

		// The first claims race each other; their set is fixed.
		first := append([]int(nil), got[:tc.workers]...)
		sort.Ints(first)
		wantFirst := append([]int(nil), tc.want[:tc.workers]...)
		sort.Ints(wantFirst)
		if fmt.Sprint(first) != fmt.Sprint(wantFirst) || fmt.Sprint(got[tc.workers:]) != fmt.Sprint(tc.want[tc.workers:]) {
			t.Errorf("workers=%d: claim order %v, want %v", tc.workers, got, tc.want)
		}
		for i, r := range results {
			if r.Index != i || r.Value != i {
				t.Errorf("workers=%d: slot %d holds index %d value %d", tc.workers, i, r.Index, r.Value)
			}
		}
	}
}

// TestEveryFileOnceUnderRetriesAndHangs: whatever order the pool
// claims files in, results stay index-aligned and onResult sees each
// index exactly once, also for a file whose every attempt times out,
// one whose first attempt hangs and one that hangs on every attempt.
func TestEveryFileOnceUnderRetriesAndHangs(t *testing.T) {
	const (
		timesOut  = 1
		hangsOnce = 3
		hangs     = 4
	)
	weights := []int{1, 5, 3, 5, 2, 8}
	stop := make(chan struct{})
	defer close(stop) // lets the abandoned attempts finish
	type value struct{ i, attempt int }
	for _, workers := range []int{1, 2} {
		var attempts [6]atomic.Int32
		var mu sync.Mutex
		seen := map[int]Result[value]{}
		results, sum := Run(weights, Options{Workers: workers, FileTimeout: 20 * time.Millisecond, Retries: 1},
			func(ctx context.Context, i, _ int) value {
				a := int(attempts[i].Add(1))
				if i == hangs || (i == hangsOnce && a == 1) {
					<-stop // ignores ctx: only the supervisor's grace gets the worker back
				}
				return value{i, a}
			},
			func(v value) Grade {
				if v.i == timesOut {
					return Grade{Status: TimedOut}
				}
				return Grade{Status: OK}
			},
			func(r Result[value]) {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := seen[r.Index]; dup {
					t.Errorf("workers=%d: onResult fired twice for index %d", workers, r.Index)
				}
				seen[r.Index] = r
			})
		if len(results) != len(weights) || len(seen) != len(weights) {
			t.Fatalf("workers=%d: %d results, %d onResult calls for %d files", workers, len(results), len(seen), len(weights))
		}
		for i, r := range results {
			wantStatus, wantAttempts, wantHung := OK, 1, false
			switch i {
			case timesOut:
				wantStatus, wantAttempts = TimedOut, 2
			case hangsOnce:
				wantAttempts = 2
			case hangs:
				wantStatus, wantAttempts, wantHung = Failed, 2, true
			}
			if r.Index != i || r.Status != wantStatus || r.Attempts != wantAttempts || r.Hung != wantHung {
				t.Errorf("workers=%d: slot %d: index %d status %v attempts %d hung %v, want %d %v %d %v",
					workers, i, r.Index, r.Status, r.Attempts, r.Hung, i, wantStatus, wantAttempts, wantHung)
			}
			if !wantHung && r.Value != (value{i, wantAttempts}) {
				t.Errorf("workers=%d: slot %d value %+v", workers, i, r.Value)
			}
			if s := seen[i]; s.Index != r.Index || s.Status != r.Status || s.Attempts != r.Attempts || s.Value != r.Value {
				t.Errorf("workers=%d: index %d streamed %+v, final %+v", workers, i, s, r)
			}
		}
		if sum.OK != 4 || sum.TimedOut != 1 || sum.Errors != 1 || sum.Hung != 1 || sum.Retries != 3 {
			t.Errorf("workers=%d: summary %+v", workers, sum)
		}
	}
}
