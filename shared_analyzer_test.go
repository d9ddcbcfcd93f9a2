package uafcheck_test

// One Analyzer serves a whole incremental session — uafcheck -watch and
// every /v1/delta line of a uafserve process — so these tests pin the
// two properties that design rests on: a call abandoned mid-analysis
// blocks no later call on the handle, and one memo store serves calls
// under differing option sets without crossing their results.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"uafcheck"
	"uafcheck/internal/batch"
	"uafcheck/internal/fault"
	"uafcheck/internal/progen"
	"uafcheck/internal/wire"
)

// mixedSrc holds a fan-out that a 2-state budget degrades and an
// atomics handshake that only the atomics model proves safe, so the
// option sets below give three different reports of one file.
const mixedSrc = `proc fan() {
  var x: int = 1;
  var d0$: sync bool;
  var d1$: sync bool;
  var d2$: sync bool;
  begin with (ref x) { x += 1; d0$ = true; }
  begin with (ref x) { x += 2; d1$ = true; }
  begin with (ref x) { x += 3; d2$ = true; }
  d0$;
  d1$;
  d2$;
}
proc atomicGuard() {
  var buf: int = 0;
  var flag: atomic int;
  begin with (ref buf) {
    buf = 9;
    flag.write(1);
  }
  flag.waitFor(1);
}
`

// sharedOptionSets are the option sets the shared-store tests
// interleave on one handle.
var sharedOptionSets = []struct {
	label string
	opts  []uafcheck.Option
}{
	{"default", nil},
	{"budget-2", []uafcheck.Option{uafcheck.WithMaxStates(2)}},
	{"atomics", []uafcheck.Option{uafcheck.WithAtomicsModel(true)}},
	{"no-prune", []uafcheck.Option{uafcheck.WithPrune(false)}},
	{"counting", []uafcheck.Option{uafcheck.WithAtomicsCounting(true)}},
	{"budget-16", []uafcheck.Option{uafcheck.WithMaxStates(16)}},
}

// TestSharedAnalyzerAcrossOptions interleaves AnalyzeDelta calls on
// one file under several option sets, all through one handle — first
// in turn, then from several goroutines at once, as concurrent
// /v1/delta streams do: every call must give AnalyzeContext's wire
// bytes, and the later calls must be served from the shared store.
func TestSharedAnalyzerAcrossOptions(t *testing.T) {
	ctx := context.Background()
	want := make(map[string]string)
	distinct := make(map[string]bool)
	for _, set := range sharedOptionSets {
		rep, err := uafcheck.AnalyzeContext(ctx, "mixed.chpl", mixedSrc, set.opts...)
		want[set.label] = wireBytes(t, "mixed.chpl", rep, err)
		distinct[want[set.label]] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("option sets give %d distinct reports, want at least 3", len(distinct))
	}

	an := uafcheck.NewAnalyzer()
	round := func(label string) {
		for _, set := range sharedOptionSets {
			rep, err := an.AnalyzeDelta(ctx, "mixed.chpl", mixedSrc, set.opts...)
			if got := wireBytes(t, "mixed.chpl", rep, err); got != want[set.label] {
				t.Errorf("%s, %s: wire bytes differ\n got: %s\nwant: %s", label, set.label, got, want[set.label])
			}
		}
	}
	round("in turn")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			round(fmt.Sprint("goroutine ", g))
		}()
	}
	wg.Wait()
	st := an.Stats()
	if st.Files != int64(5*len(sharedOptionSets)) || st.UnitHits == 0 {
		t.Errorf("stats %+v: want %d files and unit hits from the shared store", st, 5*len(sharedOptionSets))
	}
}

// TestSharedAnalyzerModuleAcrossOptions is the module-mode counterpart:
// AnalyzeModuleDelta under several option sets on one handle matches a
// one-shot AnalyzeModuleContext file for file.
func TestSharedAnalyzerModuleAcrossOptions(t *testing.T) {
	ctx := context.Background()
	files := modFiles(progen.GenerateModule(7, progen.ModuleOptions{Files: 3, Procs: 2}))
	files = append(files, uafcheck.FileInput{Name: "mixed.chpl", Src: mixedSrc})
	want := make(map[string]*uafcheck.BatchReport)
	for _, set := range sharedOptionSets {
		mrep, err := uafcheck.AnalyzeModuleContext(ctx, files, set.opts...)
		if err != nil {
			t.Fatalf("%s: %v", set.label, err)
		}
		want[set.label] = mrep
	}

	an := uafcheck.NewAnalyzer()
	for round := 0; round < 3; round++ {
		for _, set := range sharedOptionSets {
			mrep, err := an.AnalyzeModuleDelta(ctx, files, set.opts...)
			if err != nil {
				t.Fatalf("round %d, %s: %v", round, set.label, err)
			}
			requireModulesEqual(t, mrep, want[set.label], set.label)
		}
	}
	if st := an.Stats(); st.UnitHits == 0 {
		t.Errorf("stats %+v: want unit hits from the shared store", st)
	}
}

// TestSharedAnalyzerAlternatingModules: two goroutines alternate two
// different modules with the same file names on one handle. Each call
// replaces the handle's parse store and summary memo with its own
// snapshot, so the calls keep finding the other module's entries under
// their file names and procedure names; every report must still match
// a one-shot run's wire bytes.
func TestSharedAnalyzerAlternatingModules(t *testing.T) {
	ctx := context.Background()
	mopts := progen.ModuleOptions{Files: 3, Procs: 3}
	var mods [2][]uafcheck.FileInput
	var want [2][]string
	for i := range mods {
		mods[i] = modFiles(progen.GenerateModule(int64(40+i), mopts))
		mrep, err := uafcheck.AnalyzeModuleContext(ctx, mods[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = moduleWire(t, mrep)
	}
	if mods[0][0].Name != mods[1][0].Name || mods[0][0].Src == mods[1][0].Src {
		t.Fatal("the modules must share file names and differ in content")
	}
	an := uafcheck.NewAnalyzer()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (g + k) % 2
				mrep, err := an.AnalyzeModuleDelta(ctx, mods[i])
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
						errs <- fmt.Errorf("goroutine %d, call %d: module %d file %s: wire bytes differ", g, k, i, fr.Name)
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

// TestStalledAnalyzerCallBlocksNothing abandons a call stuck inside the
// per-procedure pipeline, the way the watch service and /v1/delta do,
// and then uses the same handle again: the second call must not wait
// for the first and must still match a fresh run.
func TestStalledAnalyzerCallBlocksNothing(t *testing.T) {
	ctx := context.Background()
	an := uafcheck.NewAnalyzer()
	restore := fault.Set(fault.New(7, fault.Rule{
		Point: fault.AnalysisDelay, Mode: fault.ModeDelay, Prob: 1, Count: 1,
		Delay: 30 * time.Second,
	}))
	defer restore()
	_, hung := batch.Attempt(ctx, 10*time.Millisecond, func(actx context.Context) error {
		_, err := an.AnalyzeDelta(actx, "stalled.chpl", mixedSrc)
		return err
	})
	if !hung {
		t.Fatal("the stalled call was not abandoned")
	}

	src := fanoutProc(0, 3)
	start := time.Now()
	rep, err := an.AnalyzeDelta(ctx, "next.chpl", src)
	if d := time.Since(start); d > time.Second {
		t.Errorf("a call after the abandoned one took %v, want under 1s", d)
	}
	frep, ferr := uafcheck.AnalyzeContext(ctx, "next.chpl", src)
	if got, want := wireBytes(t, "next.chpl", rep, err), wireBytes(t, "next.chpl", frep, ferr); got != want {
		t.Errorf("wire bytes differ after the abandoned call\n got: %s\nwant: %s", got, want)
	}
}
