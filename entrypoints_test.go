package uafcheck_test

// Every entry point runs one per-file function under one wall-clock
// option, so these tests pin what that buys: WithDeadline reaches every
// entry point, a batch file's wire line is the one AnalyzeContext gives
// for it, and a batch file whose analysis hangs gets no made-up report.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"uafcheck"
	"uafcheck/internal/corpus"
	"uafcheck/internal/fault"
	"uafcheck/internal/wire"
)

func readFigure1(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("testdata/figure1.chpl")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDeadlineReachesEveryEntryPoint: a 1ns WithDeadline expires before
// any exploration, so every analysis entry point must answer a
// deadline-degraded report for figure1, and Repair must refuse.
func TestDeadlineReachesEveryEntryPoint(t *testing.T) {
	ctx := context.Background()
	src := readFigure1(t)
	dl := uafcheck.WithDeadline(time.Nanosecond)
	single := func(rep *uafcheck.Report, err error) []uafcheck.FileReport {
		return []uafcheck.FileReport{{Report: rep, Err: err}}
	}
	for _, tc := range []struct {
		name string
		run  func() []uafcheck.FileReport
	}{
		{"AnalyzeContext", func() []uafcheck.FileReport {
			return single(uafcheck.AnalyzeContext(ctx, "figure1.chpl", src, dl))
		}},
		{"AnalyzeFilesContext", func() []uafcheck.FileReport {
			return uafcheck.AnalyzeFilesContext(ctx, []uafcheck.FileInput{
				{Name: "a.chpl", Src: src}, {Name: "b.chpl", Src: src},
			}, dl).Files
		}},
		{"AnalyzeModuleContext", func() []uafcheck.FileReport {
			mr, err := uafcheck.AnalyzeModuleContext(ctx, []uafcheck.FileInput{{Name: "figure1.chpl", Src: src}}, dl)
			if err != nil {
				t.Fatal(err)
			}
			return mr.Files
		}},
		{"AnalyzeDelta", func() []uafcheck.FileReport {
			return single(uafcheck.NewAnalyzer().AnalyzeDelta(ctx, "figure1.chpl", src, dl))
		}},
		{"AnalyzeModuleDelta", func() []uafcheck.FileReport {
			mr, err := uafcheck.NewAnalyzer().AnalyzeModuleDelta(ctx, []uafcheck.FileInput{{Name: "figure1.chpl", Src: src}}, dl)
			if err != nil {
				t.Fatal(err)
			}
			return mr.Files
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, fr := range tc.run() {
				if fr.Err != nil {
					t.Fatal(fr.Err)
				}
				if d := fr.Report.Degraded; d == nil || d.Reason != uafcheck.DegradeDeadline {
					t.Errorf("Degraded = %+v, want reason %q", d, uafcheck.DegradeDeadline)
				}
				if fr.Status != "" && fr.Status != "timed-out" {
					t.Errorf("Status = %q, want timed-out", fr.Status)
				}
			}
		})
	}
	if _, err := uafcheck.Repair(ctx, "figure1.chpl", src, dl); !errors.Is(err, uafcheck.ErrRepairDegraded) {
		t.Errorf("Repair err = %v, want ErrRepairDegraded", err)
	}
}

// TestHungBatchFileHasNoReport stalls figure1's analysis far past its
// deadline: the batch driver abandons the attempt, and the file answers
// an ErrDeadline error with no report — never a made-up report without
// figure1's real warnings.
func TestHungBatchFileHasNoReport(t *testing.T) {
	src := readFigure1(t)
	restore := fault.Set(fault.New(5, fault.Rule{
		Point: fault.AnalysisDelay, Mode: fault.ModeDelay, Prob: 1, Count: 1,
		Delay: 2 * time.Second,
	}))
	defer restore()
	rep := uafcheck.AnalyzeFilesContext(context.Background(),
		[]uafcheck.FileInput{{Name: "figure1.chpl", Src: src}},
		uafcheck.WithDeadline(20*time.Millisecond))
	fr := rep.Files[0]
	if fr.Report != nil || !errors.Is(fr.Err, uafcheck.ErrDeadline) {
		t.Fatalf("hung file: Report %+v, Err %v; want no report and ErrDeadline", fr.Report, fr.Err)
	}
	if fr.Status != "error" {
		t.Errorf("Status = %q, want error", fr.Status)
	}
	if got := wire.NewResult(fr.Name, fr.Report, fr.Err, false).Status; got != "error" {
		t.Errorf("wire status = %q, want error", got)
	}
	if got := rep.ExitCode(); got != 3 {
		t.Errorf("ExitCode() = %d, want 3 (summary %+v)", got, rep.Summary)
	}
}

// TestBatchWireMatchesAnalyzeContext: for a mixed batch — every
// testdata program, every seed-11 corpus program with tasks, some
// without, and one that fails to parse — the batch line equals the
// single-file line with one worker (input order) and with two (longest
// first) without a cache, and with a cold and a warm cache. One worker
// also streams the files in input order.
func TestBatchWireMatchesAnalyzeContext(t *testing.T) {
	ctx := context.Background()
	var files []uafcheck.FileInput
	for _, pattern := range []string{"testdata/*.chpl", "testdata/suite/*.chpl"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, uafcheck.FileInput{Name: p, Src: string(data)})
		}
	}
	for i, tc := range corpus.Generate(corpus.DefaultParams(11)) {
		if tc.HasBegin || i%40 == 0 {
			files = append(files, uafcheck.FileInput{Name: tc.Name + ".chpl", Src: tc.Source})
		}
	}
	files = append(files, uafcheck.FileInput{Name: "broken.chpl", Src: "proc ( nope"})
	want := make([]string, len(files))
	for i, f := range files {
		rep, err := uafcheck.AnalyzeContext(ctx, f.Name, f.Src)
		want[i] = wireBytes(t, f.Name, rep, err)
	}
	if !strings.Contains(want[len(want)-1], `"status":"error"`) {
		t.Fatalf("broken.chpl line %s, want status error", want[len(want)-1])
	}
	inputOrder := make([]int, len(files))
	for i := range inputOrder {
		inputOrder[i] = i
	}
	cache := uafcheck.NewCache(uafcheck.CacheConfig{MaxEntries: 2 * len(files)})
	for _, run := range []struct {
		label string
		opts  []uafcheck.Option
		// inOrder: the run must stream files in input order.
		inOrder bool
	}{
		{"no cache, 1 worker", []uafcheck.Option{uafcheck.WithWorkers(1)}, true},
		{"no cache, 2 workers", []uafcheck.Option{uafcheck.WithWorkers(2)}, false},
		{"cold cache", []uafcheck.Option{uafcheck.WithCache(cache)}, false},
		{"warm cache", []uafcheck.Option{uafcheck.WithCache(cache)}, false},
	} {
		var mu sync.Mutex
		var streamed []int
		rep := uafcheck.AnalyzeFilesContext(ctx, files, append(run.opts, uafcheck.WithOnFile(func(i int, _ uafcheck.FileReport) {
			mu.Lock()
			defer mu.Unlock()
			streamed = append(streamed, i)
		}))...)
		for i, fr := range rep.Files {
			if got := wireBytes(t, fr.Name, fr.Report, fr.Err); got != want[i] {
				t.Errorf("%s: %s: batch line differs\n batch: %s\nsingle: %s", run.label, fr.Name, got, want[i])
			}
		}
		sorted := slices.Clone(streamed)
		slices.Sort(sorted)
		if !slices.Equal(sorted, inputOrder) {
			t.Errorf("%s: WithOnFile indexes %v are not each file once", run.label, streamed)
		}
		if run.inOrder && !slices.Equal(streamed, inputOrder) {
			t.Errorf("%s: streamed out of input order: %v", run.label, streamed)
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("cache stats %+v: the warm run served no hits", st)
	}
}
