// Package batch is the fault-isolated parallel driver for multi-file
// analysis runs: a worker pool with per-file wall-clock budgets, bounded
// retry-with-smaller-budget after deadline hits, panic isolation (one
// crashing input never aborts the batch) and aggregate robustness
// telemetry through internal/obs.
//
// The driver is the operational contract the resource governor was built
// for: every input produces exactly one classified Result — OK, Degraded
// (sound conservative over-approximation), TimedOut, Crashed or
// FrontendError — so a corpus run over millions of files can always
// account for every file, and a shell caller can always distinguish a
// clean run from a degraded one.
package batch

import (
	"context"
	"runtime"
	"sync"
	"time"

	"uafcheck/internal/analysis"
	"uafcheck/internal/obs"
	"uafcheck/internal/pps"
)

// File is one batch input.
type File struct {
	// Name labels diagnostics and reports (usually a path).
	Name string
	// Src is the MiniChapel source text.
	Src string
}

// Status classifies one file's final outcome, most severe last.
type Status int

const (
	// OK: the pipeline ran to completion; warnings (if any) are exact.
	OK Status = iota
	// Degraded: the exploration stopped on a state budget or batch
	// cancellation and fell back to conservative warnings. Sound, but
	// over-approximate.
	Degraded
	// TimedOut: the per-file deadline fired on every attempt; the final
	// result (when present) is the conservative fallback.
	TimedOut
	// Crashed: a pipeline stage panicked. The panic was recovered into
	// Result.Crashes and the rest of the batch was unaffected.
	Crashed
	// FrontendError: the input failed to lex, parse or resolve.
	FrontendError
)

// String renders the status for reports and telemetry.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Degraded:
		return "degraded"
	case TimedOut:
		return "timed-out"
	case Crashed:
		return "crashed"
	case FrontendError:
		return "error"
	}
	return "unknown"
}

// Options configure a batch run.
type Options struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// FileTimeout bounds each attempt's wall clock (0 = unbounded). The
	// per-file context it derives is polled inside the PPS hot loop, so
	// a pathological file returns — degraded — within a few poll
	// intervals of the deadline.
	FileTimeout time.Duration
	// Retries is how many extra attempts a deadline hit earns. Each
	// retry divides the PPS MaxStates budget by BudgetShrink, trading
	// wall-clock flakiness for a deterministic state budget: a file that
	// times out under load converges to a reproducible budget-degraded
	// result instead of flapping.
	Retries int
	// BudgetShrink is the per-retry MaxStates divisor (default 4).
	BudgetShrink int
	// Analysis configures the per-file pipeline.
	Analysis analysis.Options
	// Analyze, when non-nil, replaces analysis.AnalyzeSource as the
	// per-attempt pipeline. uafcheck.WithAnalyzer sets it to run each
	// attempt through the handle's unit memo store
	// (analysis.AnalyzeSourceIncremental). It must honor opts.Ctx and
	// be safe for concurrent use; every attempt (retries included) goes
	// through it with that attempt's effective options, so shrunken
	// retry budgets are never served a full-budget memo.
	Analyze func(name, src string, opts analysis.Options) *analysis.Result
	// Ctx cancels the whole batch. Files not yet started still produce
	// Results: their analyses observe the cancelled context immediately
	// and degrade to the conservative fallback.
	Ctx context.Context
	// Obs receives the batch span and the aggregate outcome counters
	// (files, ok, degraded, crashed, timed_out, errors, retries,
	// warnings). The Recorder is mutex-guarded, so one instance is
	// shared by all workers.
	Obs *obs.Recorder
	// PerFileObs, when set, supplies a telemetry recorder per file; it
	// is attached to the file's analysis options (all attempts of the
	// file share it).
	PerFileObs func(i int, f File) *obs.Recorder
	// OnResult, when set, receives each file's classified result on the
	// worker goroutine that finished it, immediately after the result
	// slot is written. Callbacks for different files may run
	// concurrently; the callee must be safe for concurrent use.
	// Streaming consumers (the uafserve batch endpoint) emit per-file
	// responses from this hook instead of waiting for the whole batch.
	OnResult func(r Result)
}

// Result is one file's classified outcome.
type Result struct {
	File  File
	Index int
	// Status is the outcome class; Stop refines Degraded/TimedOut with
	// the machine-readable ladder reason.
	Status Status
	Stop   pps.StopReason
	// Res is the final attempt's analysis (nil only when the attempt was
	// abandoned as a hard hang).
	Res *analysis.Result
	// Crashes carries recovered panics (Status == Crashed).
	Crashes []analysis.Crash
	// Attempts counts pipeline runs for this file (≥ 1 unless the batch
	// context was already dead).
	Attempts int
	// Duration is the wall clock across all attempts.
	Duration time.Duration
	// Warnings / Conservative count the final attempt's warnings and how
	// many of them are degradation-ladder over-approximations.
	Warnings     int
	Conservative int
	// Hung marks an attempt that did not return even after its context
	// fired plus a grace period (the analysis goroutine was abandoned).
	Hung bool
}

// Summary aggregates a batch run — the "files OK / degraded / crashed /
// timed out" accounting line.
type Summary struct {
	Files        int
	OK           int
	Degraded     int
	TimedOut     int
	Crashed      int
	Errors       int
	Retries      int
	Warnings     int
	Conservative int
	Hung         int
}

// Degradations returns how many files produced something other than an
// exact, complete result.
func (s Summary) Degradations() int { return s.Degraded + s.TimedOut + s.Crashed }

// Run analyzes every file and returns per-file results (index-aligned
// with files) plus the aggregate summary. Results are deterministic for
// a fixed input set and options: workers race only on who analyzes
// what, never on what a file's analysis observes.
func Run(files []File, opts Options) ([]Result, Summary) {
	endBatch := opts.Obs.Span(obs.PhaseBatch)
	defer endBatch()
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	// Concurrency split: total parallelism ≈ Workers × per-analysis PPS
	// workers. With many files, file-level workers already saturate the
	// machine, so an unset in-analysis parallelism defaults to sequential
	// exploration here (a single AnalyzeContext call defaults to GOMAXPROCS
	// instead). An explicit value passes through — callers with few huge
	// files can flip the split the other way.
	if opts.Analysis.PPS.Parallelism <= 0 {
		opts.Analysis.PPS.Parallelism = 1
	}
	if opts.BudgetShrink <= 1 {
		opts.BudgetShrink = 4
	}
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}

	results := make([]Result, len(files))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = runFile(files[i], i, opts)
				if opts.OnResult != nil {
					opts.OnResult(results[i])
				}
			}
		}()
	}
	for i := range files {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	sum := summarize(results)
	flushObs(opts.Obs, sum)
	return results, sum
}

// runFile drives one file through the attempt/retry ladder.
func runFile(f File, idx int, opts Options) Result {
	start := time.Now()
	res := Result{File: f, Index: idx}

	aopts := opts.Analysis
	if opts.PerFileObs != nil {
		aopts.Obs = opts.PerFileObs(idx, f)
	}
	budget := aopts.PPS.MaxStates
	maxAttempts := 1 + opts.Retries

	for attempt := 0; attempt < maxAttempts; attempt++ {
		res.Attempts = attempt + 1
		if attempt > 0 {
			// Retry rung: a deadline hit means the state space outran the
			// wall clock. Shrink the deterministic budget so the retry
			// terminates by state count, not by timer.
			if budget <= 0 {
				budget = pps.DefaultMaxStates()
			}
			budget /= opts.BudgetShrink
			if budget < 1 {
				budget = 1
			}
			aopts.PPS.MaxStates = budget
		}
		ar, hung := runAttempt(f, aopts, opts)
		if hung {
			res.Hung = true
			res.Status = TimedOut
			res.Stop = pps.StopDeadline
			continue // retry with a smaller budget, if any attempts remain
		}
		res.Res = ar
		res.Hung = false
		classify(&res, ar)
		if res.Status != TimedOut {
			break
		}
	}
	res.Duration = time.Since(start)
	return res
}

// runAttempt executes one pipeline run under the per-file deadline.
func runAttempt(f File, aopts analysis.Options, opts Options) (*analysis.Result, bool) {
	analyze := opts.Analyze
	if analyze == nil {
		analyze = analysis.AnalyzeSource
	}
	return Attempt(opts.Ctx, opts.FileTimeout, func(ctx context.Context) (ar *analysis.Result) {
		// analysis recovers per-proc panics itself; this recover is the
		// net under frontend/report crashes so the worker never dies.
		defer func() {
			if recover() != nil {
				ar = nil
			}
		}()
		o := aopts // assigning aopts itself would move it to the heap
		o.Ctx = ctx
		return analyze(f.Name, f.Src, o)
	})
}

// Attempt is the analysis-hang supervisor shared by the batch driver,
// the watch service and uafserve's /v1/delta lines: it runs fn in its
// own goroutine under a context derived from ctx (with timeout, when
// positive) and waits. The cooperative path — by far the common one —
// returns fn's value promptly after the context fires. If fn has not
// returned by the timeout plus a grace of max(timeout, 100ms), Attempt
// abandons its goroutine (which cannot be killed) and reports hung with
// the zero T. The goroutine finishes on its own, so fn must hold
// nothing a later call waits on; an Analyzer's memo store locks only
// around its lookups and stores.
func Attempt[T any](ctx context.Context, timeout time.Duration, fn func(context.Context) T) (v T, hung bool) {
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()
	done := make(chan T, 1)
	go func() { done <- fn(ctx) }()

	select {
	case v = <-done:
		return v, false
	case <-ctx.Done():
	}
	select {
	case v = <-done:
		return v, false
	case <-time.After(max(timeout, 100*time.Millisecond)):
		return v, true
	}
}

// classify maps one attempt's analysis result onto the outcome ladder.
func classify(res *Result, ar *analysis.Result) {
	res.Warnings = 0
	res.Conservative = 0
	res.Stop = pps.StopNone
	if ar == nil {
		// The attempt goroutine panicked outside the per-proc recovery.
		res.Status = Crashed
		res.Stop = analysis.StopPanic
		return
	}
	res.Crashes = ar.Crashes
	for _, w := range ar.Warnings() {
		res.Warnings++
		if w.Conservative {
			res.Conservative++
		}
	}
	if ar.Diags.HasErrors() {
		res.Status = FrontendError
		return
	}
	res.Stop = ar.Degraded()
	switch res.Stop {
	case pps.StopNone:
		res.Status = OK
	case analysis.StopPanic:
		res.Status = Crashed
	case pps.StopDeadline:
		res.Status = TimedOut
	default: // budget, cancelled
		res.Status = Degraded
	}
}

// summarize folds the per-file results.
func summarize(results []Result) Summary {
	var s Summary
	s.Files = len(results)
	for i := range results {
		r := &results[i]
		switch r.Status {
		case OK:
			s.OK++
		case Degraded:
			s.Degraded++
		case TimedOut:
			s.TimedOut++
		case Crashed:
			s.Crashed++
		case FrontendError:
			s.Errors++
		}
		s.Retries += r.Attempts - 1
		s.Warnings += r.Warnings
		s.Conservative += r.Conservative
		if r.Hung {
			s.Hung++
		}
	}
	return s
}

// flushObs records the aggregate counters once per batch.
func flushObs(r *obs.Recorder, s Summary) {
	if r == nil {
		return
	}
	r.Add(obs.CtrBatchFiles, int64(s.Files))
	r.Add(obs.CtrBatchOK, int64(s.OK))
	r.Add(obs.CtrBatchDegraded, int64(s.Degraded))
	r.Add(obs.CtrBatchTimedOut, int64(s.TimedOut))
	r.Add(obs.CtrBatchCrashed, int64(s.Crashed))
	r.Add(obs.CtrBatchErrors, int64(s.Errors))
	r.Add(obs.CtrBatchRetries, int64(s.Retries))
	r.Add(obs.CtrBatchWarnings, int64(s.Warnings))
}
