package watch

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"uafcheck"
	"uafcheck/internal/fault"
	"uafcheck/internal/obs"
)

// syncBuf is a mutex-guarded output buffer: the service writes from
// its own goroutine while tests poll String.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

const buggySrc = "proc p() {\n  var x: int = 0;\n  begin with (ref x) {\n    x = 1;\n  }\n}\n"
const fixedSrc = "proc p() {\n  var x: int = 0;\n  sync {\n    begin with (ref x) {\n      x = 1;\n    }\n  }\n}\n"

// editedSrc changes p's body (not just trailing trivia), so the
// incremental engine must re-run the unit instead of serving its memo.
const editedSrc = "proc p() {\n  var x: int = 0;\n  begin with (ref x) {\n    x = 2;\n  }\n}\n"

// fanoutSrc explores far more than a 2-state budget, forcing the
// budget rung of the degradation ladder (same shape as the public
// API's syntheticFanout benchmark program).
const fanoutSrc = `config const flag = true;
proc fan() {
  var x: int = 1;
  var d0$: sync bool;
  var d1$: sync bool;
  var d2$: sync bool;
  var d3$: sync bool;
  begin with (ref x) { x += 1; d0$ = true; }
  begin with (ref x) { x += 2; d1$ = true; }
  begin with (ref x) { x += 3; d2$ = true; }
  begin with (ref x) { x += 4; d3$ = true; }
  if (flag) { writeln(0); } else { writeln(0); }
  if (flag) { writeln(1); } else { writeln(0); }
  d0$;
  d1$;
  d2$;
  d3$;
}
`

// startService spins up a Service over roots with fast test timings
// and returns it plus its output buffer and a stop func.
func startService(t *testing.T, roots []string, hang time.Duration) (*Service, *syncBuf, func()) {
	t.Helper()
	var out syncBuf
	svc := New(Config{
		Roots:       roots,
		Interval:    2 * time.Millisecond,
		HangTimeout: hang,
		Out:         &out,
		Analyzer:    uafcheck.NewAnalyzer(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.Run(ctx)
	}()
	return svc, &out, func() {
		cancel()
		<-done
	}
}

// replaceFile swaps new content in with a rename: os.WriteFile
// truncates before it writes, and a poll that reads the empty file in
// between would serve it as a real (warning-free) edit. The scan
// ignores the .tmp name.
func replaceFile(t *testing.T, path, src string) {
	t.Helper()
	if err := os.WriteFile(path+".tmp", []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTreeScanAndDeletion: a directory root is scanned recursively,
// created files are picked up between polls, and a deleted file's
// warnings drop with a diff line instead of erroring the loop.
func TestTreeScanAndDeletion(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "nested")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	a := filepath.Join(dir, "a.chpl")
	b := filepath.Join(sub, "b.chpl")
	if err := os.WriteFile(a, []byte(buggySrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte(fixedSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	// A non-matching extension is ignored by the tree scan.
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc, out, stop := startService(t, []string{dir}, time.Minute)
	defer stop()

	waitFor(t, "initial reports", func() bool {
		return strings.Contains(out.String(), "watch: "+a+": 1 warning(s)") &&
			strings.Contains(out.String(), "watch: "+b+": 0 warning(s)")
	})
	if svc.Status().Files != 2 {
		t.Errorf("Files = %d, want 2 (README.md must not be tracked)", svc.Status().Files)
	}

	// A file created after startup is picked up by the rescan.
	c := filepath.Join(sub, "c.chpl")
	if err := os.WriteFile(c, []byte(buggySrc), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "created file report", func() bool {
		return strings.Contains(out.String(), "watch: "+c+": 1 warning(s)")
	})

	// Deleting a file drops its warnings with a diff, not an error.
	if err := os.Remove(a); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "deletion diff", func() bool {
		return strings.Contains(out.String(), "watch: "+a+": deleted, dropping 1 warning(s)")
	})
	if _, ok := svc.Warnings(a); ok {
		t.Error("deleted file still has served warnings")
	}
	if got := svc.Metrics().Counter("watch.deleted_files"); got != 1 {
		t.Errorf("watch.deleted_files = %d, want 1", got)
	}
	if st := svc.Status(); st.State != StateHealthy {
		t.Errorf("state after deletion = %v, want healthy", st.State)
	}
}

// TestWedgeRecovery is the watch-service wedge test: an injected stall
// makes one analysis overrun the hang timeout. The watchdog must
// abandon it and go wedged while the last-known-good warning set keeps
// being served; the next poll retries the same content on the same
// Analyzer and goes healthy; and a later fix produces a removal diff.
// It drives pass directly, so no poll races the state checks.
func TestWedgeRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.chpl")
	replaceFile(t, path, buggySrc)
	var out syncBuf
	svc := New(Config{
		Roots:       []string{path},
		HangTimeout: 15 * time.Millisecond,
		Out:         &out,
		Analyzer:    uafcheck.NewAnalyzer(),
	})
	svc.grace = 100 * time.Millisecond // abandon the stall long before it ends
	ctx := context.Background()
	svc.pass(ctx, true)
	lkg, ok := svc.Warnings(path)
	if !ok || len(lkg) != 1 {
		t.Fatalf("no last-known-good warning set: %v %v\n%s", lkg, ok, out.String())
	}

	// Arm a one-shot stall far past HangTimeout + grace, then edit the
	// file so the next pass walks into it.
	restore := fault.Set(fault.New(7, fault.Rule{
		Point: fault.AnalysisDelay, Mode: fault.ModeDelay, Prob: 1, Count: 1,
		Delay: 30 * time.Second,
	}))
	defer restore()
	replaceFile(t, path, editedSrc)
	svc.pass(ctx, false)
	if st := svc.Status(); st.State != StateWedged || st.Abandoned != 1 {
		t.Errorf("after the stall: state %v, abandoned %d; want wedged, 1", st.State, st.Abandoned)
	}
	if got, ok := svc.Warnings(path); !ok || len(got) != len(lkg) || got[0] != lkg[0] {
		t.Errorf("last-known-good not served while wedged: %v", got)
	}

	// The stall was one-shot: the retry of the same content succeeds.
	svc.pass(ctx, false)
	if st := svc.Status(); st.State != StateHealthy {
		t.Errorf("after the retry: state %v, want healthy", st.State)
	}
	got := out.String()
	for _, want := range []string{
		"watch: state healthy -> wedged",
		"abandoned (hang watchdog); retrying on the next poll",
		"watch: state wedged -> healthy",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("event stream missing %q:\n%s", want, got)
		}
	}

	// The analyzer is still serving: fixing the bug produces a removal
	// diff.
	replaceFile(t, path, fixedSrc)
	svc.pass(ctx, false)
	if !strings.Contains(out.String(), "- "+path) {
		t.Errorf("no removal diff after the fix:\n%s", out.String())
	}

	m := svc.Metrics()
	if got := m.Counter("watch.abandoned"); got != 1 {
		t.Errorf("watch.abandoned = %d, want 1", got)
	}
	if m.Gauge("watch.state") != int64(StateWedged) {
		t.Errorf("watch.state gauge high-water = %d, want %d (wedged)",
			m.Gauge("watch.state"), StateWedged)
	}
}

// TestSlowAnalysisNotWedged: an analysis that ignores the context for
// well past a tiny HangTimeout, as the parser does on a large file,
// degrades when it returns; the watchdog does not abandon it, because
// the grace has a floor that does not shrink with HangTimeout.
func TestSlowAnalysisNotWedged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.chpl")
	replaceFile(t, path, buggySrc)
	var out syncBuf
	svc := New(Config{
		Roots:       []string{path},
		HangTimeout: 10 * time.Millisecond,
		Out:         &out,
		Analyzer:    uafcheck.NewAnalyzer(),
	})
	restore := fault.Set(fault.New(7, fault.Rule{
		Point: fault.AnalysisDelay, Mode: fault.ModeDelay, Prob: 1, Count: 1,
		Delay: 300 * time.Millisecond,
	}))
	defer restore()
	svc.pass(context.Background(), true)
	if st := svc.Status(); st.State == StateWedged || st.Abandoned != 0 {
		t.Errorf("slow analysis: state %v, abandoned %d; want not wedged, 0\n%s", st.State, st.Abandoned, out.String())
	}
	if got, ok := svc.Warnings(path); !ok || len(got) == 0 {
		t.Errorf("slow analysis served no warnings: %v %v\n%s", got, ok, out.String())
	}
}

// TestDegradedReportKeepsServing: a degraded (conservative-superset)
// analysis flags the pass degraded but its warnings are still served
// and diffed; the service returns to healthy on the next clean pass.
func TestDegradedReportKeepsServing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.chpl")
	if err := os.WriteFile(path, []byte(fanoutSrc), 0o644); err != nil {
		t.Fatal(err)
	}

	var out syncBuf
	// A two-state budget degrades the fanout analysis to the
	// conservative ladder.
	svc := New(Config{
		Roots:       []string{path},
		Interval:    2 * time.Millisecond,
		HangTimeout: time.Minute,
		Out:         &out,
		Analyzer:    uafcheck.NewAnalyzer(),
		Options:     []uafcheck.Option{uafcheck.WithMaxStates(2)},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); svc.Run(ctx) }()
	defer func() { cancel(); <-done }()

	waitFor(t, "degraded report", func() bool {
		return strings.Contains(out.String(), "degraded analysis (budget)")
	})
	if _, ok := svc.Warnings(path); !ok {
		t.Error("degraded analysis did not serve its conservative warnings")
	}
	if st := svc.Status(); st.State == StateWedged {
		t.Errorf("degraded report must not wedge the service: %v", st.State)
	}
}

// TestReadFaultDegrades: an injected read failure degrades the pass
// without killing the loop, and the file recovers on the next poll.
func TestReadFaultDegrades(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.chpl")
	if err := os.WriteFile(path, []byte(buggySrc), 0o644); err != nil {
		t.Fatal(err)
	}
	restore := fault.Set(fault.New(5, fault.Rule{
		Point: fault.WatchRead, Mode: fault.ModeError, Prob: 1, Count: 3,
	}))
	defer restore()

	svc, out, stop := startService(t, []string{path}, time.Minute)
	defer stop()
	// The injected read errors burn off (Count: 3), then the file
	// analyzes and the service settles healthy.
	waitFor(t, "recovery after read faults", func() bool {
		return strings.Contains(out.String(), "1 warning(s)") &&
			svc.Status().State == StateHealthy
	})
}

// TestDiffWarnings pins the multiset diff used for the +/- output.
func TestDiffWarnings(t *testing.T) {
	cases := []struct {
		old, new, add, rem []string
	}{
		{nil, nil, nil, nil},
		{nil, []string{"w1", "w2"}, []string{"w1", "w2"}, nil},
		{[]string{"w1", "w2"}, nil, nil, []string{"w1", "w2"}},
		{[]string{"w1", "w2"}, []string{"w2", "w3"}, []string{"w3"}, []string{"w1"}},
		{[]string{"w"}, []string{"w"}, nil, nil},
		{[]string{"w", "w"}, []string{"w"}, nil, []string{"w"}},
	}
	for i, c := range cases {
		add, rem := DiffWarnings(c.old, c.new)
		if fmt.Sprint(add) != fmt.Sprint(c.add) || fmt.Sprint(rem) != fmt.Sprint(c.rem) {
			t.Errorf("case %d: DiffWarnings(%v, %v) = +%v -%v, want +%v -%v",
				i, c.old, c.new, add, rem, c.add, c.rem)
		}
	}
}

// TestMetricsAggregateStaysBounded re-analyzes an edited file over many
// polls, each edit a body the unit memo has not seen. The session
// aggregate totals the reports: no trace spans, the
// same histogram keys after 4 and after 10 edits, and a pps-explore
// timing count that grows. Reading it is a copy: reading it twice gives
// the same counters.
func TestMetricsAggregateStaysBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.chpl")
	replaceFile(t, path, buggySrc)
	svc := New(Config{
		Roots:    []string{path},
		Analyzer: uafcheck.NewAnalyzer(),
	})
	ctx := context.Background()
	svc.pass(ctx, true)
	var early uafcheck.Metrics
	for i := 0; i < 10; i++ {
		replaceFile(t, path, strings.Replace(buggySrc, "x = 1;", fmt.Sprintf("x = %d;", i+2), 1))
		svc.pass(ctx, false)
		if i == 3 {
			early = svc.Metrics()
		}
	}
	m := svc.Metrics()
	if e, l := fmt.Sprint(early.HistNames()), fmt.Sprint(m.HistNames()); e != l {
		t.Errorf("aggregate histogram keys grew from\n%s\nto\n%s", e, l)
	}
	explore := obs.HistKey(obs.HistPhaseNS, "phase", obs.PhaseExplore)
	if e, l := early.Hist(explore).Count, m.Hist(explore).Count; e == 0 || l <= e {
		t.Errorf("%s count did not grow: %d then %d", explore, e, l)
	}
	if m.Trace != nil {
		t.Errorf("aggregate keeps %d trace spans", len(m.Trace))
	}
	if got := m.Counter("watch.polls"); got != 11 {
		t.Errorf("watch.polls = %d, want 11", got)
	}
	if got := svc.Metrics().Counter("watch.polls"); got != 11 {
		t.Errorf("second read: watch.polls = %d, want 11", got)
	}
}
