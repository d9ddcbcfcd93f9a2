// Package batch is the fault-isolated parallel driver for multi-file
// analysis runs: a worker pool with per-file wall-clock budgets, bounded
// retry-with-smaller-budget after deadline hits, panic isolation (one
// crashing input never aborts the batch) and aggregate robustness
// telemetry through internal/obs.
//
// The driver is the operational contract the resource governor was built
// for: every input produces exactly one classified Result — OK, Degraded
// (sound conservative over-approximation), TimedOut, Crashed or
// Failed — so a corpus run over millions of files can always
// account for every file, and a shell caller can always distinguish a
// clean run from a degraded one.
package batch

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"uafcheck/internal/analysis"
	"uafcheck/internal/obs"
	"uafcheck/internal/pps"
)

// Status classifies one file's final outcome, most severe last.
type Status int

const (
	// OK: the pipeline ran to completion; warnings (if any) are exact.
	OK Status = iota
	// Degraded: the exploration stopped on a state budget or batch
	// cancellation and fell back to conservative warnings. Sound, but
	// over-approximate.
	Degraded
	// TimedOut: the per-attempt deadline fired on every attempt; the
	// final result is the conservative fallback.
	TimedOut
	// Crashed: a pipeline stage panicked. The panic was recovered and
	// the rest of the batch was unaffected.
	Crashed
	// Failed: there is no result: the input failed to lex, parse or
	// resolve, or its last attempt hung and was abandoned.
	Failed
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
	case Failed:
		return "error"
	}
	return "unknown"
}

// budgetShrink is the per-retry divisor of the PPS MaxStates budget.
const budgetShrink = 4

// Options configure a batch run.
type Options struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// FileTimeout bounds each attempt's wall clock (0 = unbounded). The
	// attempt's context carries it and is polled inside the PPS hot
	// loop, so a pathological file returns — degraded — within a few
	// poll intervals of the deadline.
	FileTimeout time.Duration
	// Retries is how many extra attempts a deadline hit earns. Each
	// retry divides the PPS MaxStates budget by budgetShrink, trading
	// wall-clock flakiness for a deterministic state budget: a file that
	// times out under load converges to a reproducible budget-degraded
	// result instead of flapping.
	Retries int
	// MaxStates is the first attempt's PPS state budget (0 = the
	// analysis default); retries shrink it.
	MaxStates int
	// Ctx cancels the whole batch. Files not yet started still produce
	// Results: their attempts observe the cancelled context immediately
	// and degrade to the conservative fallback.
	Ctx context.Context
	// Obs receives the batch span and the aggregate outcome counters
	// (files, ok, degraded, crashed, timed_out, errors, retries,
	// warnings). The Recorder is mutex-guarded, so one instance is
	// shared by all workers.
	Obs *obs.Recorder
}

// Grade is what the driver needs to know of one attempt's value: its
// outcome class and its warning counts.
type Grade struct {
	Status Status
	// Warnings / Conservative count the attempt's warnings and how many
	// of them are degradation-ladder over-approximations.
	Warnings     int
	Conservative int
}

// Result is one file's classified outcome.
type Result[T any] struct {
	Index int
	// Value is the final attempt's value: the zero T when that attempt
	// was abandoned as a hard hang (Hung) or panicked.
	Value T
	Grade
	// Attempts counts this file's attempts, retries included.
	Attempts int
	// Duration is the wall clock across all attempts.
	Duration time.Duration
	// Hung marks a final attempt that did not return even after its
	// context fired plus a grace period (its goroutine was abandoned).
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

// Add counts one file's grade: its status and its warnings.
func (s *Summary) Add(g Grade) {
	s.Files++
	switch g.Status {
	case OK:
		s.OK++
	case Degraded:
		s.Degraded++
	case TimedOut:
		s.TimedOut++
	case Crashed:
		s.Crashed++
	case Failed:
		s.Errors++
	}
	s.Warnings += g.Warnings
	s.Conservative += g.Conservative
}

// Run runs len(weights) files on a pool of opts.Workers goroutines and
// returns their results (index-aligned) plus the aggregate summary.
// weights[i] is the caller's estimate of file i's cost (source length
// serves); a pool of more than one worker claims files heaviest first,
// ties in input order, so no heavy file starts late and runs alone
// after the others have finished (longest-processing-time-first, within
// 4/3 of the optimal makespan). One worker claims them in input order.
// attempt analyzes file i once under ctx, which carries the attempt's
// deadline, with the attempt's PPS state budget; grade classifies its
// value, and a TimedOut grade earns a retry while any remain. onResult,
// when set, receives each file's result on the worker goroutine that
// finished it, right after its slot is written; calls for different
// files may run concurrently. Results are deterministic for a fixed
// input set and options: workers race only on who analyzes what, never
// on what a file's analysis observes.
func Run[T any](weights []int, opts Options, attempt func(ctx context.Context, i, maxStates int) T,
	grade func(T) Grade, onResult func(Result[T])) ([]Result[T], Summary) {
	endBatch := opts.Obs.Span(obs.PhaseBatch)
	defer endBatch()
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}

	order := dispatchOrder(weights, opts.Workers)
	results := make([]Result[T], len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(opts.Workers, len(order)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(len(order)); k = next.Add(1) - 1 {
				i := order[k]
				results[i] = runFile(i, opts, attempt, grade)
				if onResult != nil {
					onResult(results[i])
				}
			}
		}()
	}
	wg.Wait()

	sum := summarize(results)
	flushObs(opts.Obs, sum)
	return results, sum
}

// dispatchOrder is the order in which a pool of the given size claims
// files: input order for one worker, otherwise descending weight with
// ties in input order.
func dispatchOrder(weights []int, workers int) []int {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	if workers > 1 {
		sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	}
	return order
}

// runFile drives one file through the attempt/retry ladder.
func runFile[T any](i int, opts Options, attempt func(context.Context, int, int) T, grade func(T) Grade) Result[T] {
	start := time.Now()
	res := Result[T]{Index: i}
	budget := opts.MaxStates
	for a := 0; a <= opts.Retries; a++ {
		res.Attempts = a + 1
		if a > 0 {
			// Retry rung: a deadline hit means the state space outran the
			// wall clock. Shrink the deterministic budget so the retry
			// terminates by state count, not by timer.
			if budget <= 0 {
				budget = pps.DefaultMaxStates()
			}
			budget = max(budget/budgetShrink, 1)
		}
		v, panicked, hung := runAttempt(i, budget, opts, attempt)
		res.Value, res.Hung = v, hung
		switch {
		case hung:
			res.Grade = Grade{Status: Failed}
			continue // retry with a smaller budget, if any attempts remain
		case panicked:
			res.Grade = Grade{Status: Crashed}
		default:
			res.Grade = grade(v)
		}
		if res.Status != TimedOut {
			break
		}
	}
	res.Duration = time.Since(start)
	return res
}

// runAttempt executes one attempt under the per-attempt deadline. A
// panic that escapes attempt is recovered here, so the worker never
// dies.
func runAttempt[T any](i, budget int, opts Options, attempt func(context.Context, int, int) T) (v T, panicked, hung bool) {
	type out struct {
		v        T
		panicked bool
	}
	o, hung := Attempt(opts.Ctx, opts.FileTimeout, func(ctx context.Context) (o out) {
		defer func() {
			if recover() != nil {
				o = out{panicked: true}
			}
		}()
		return out{v: attempt(ctx, i, budget)}
	})
	return o.v, o.panicked, hung
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
	return AttemptGrace(ctx, timeout, max(timeout, 100*time.Millisecond), fn)
}

// AttemptGrace is Attempt with the caller's grace: fn is abandoned when
// it has not returned by timeout plus grace.
func AttemptGrace[T any](ctx context.Context, timeout, grace time.Duration, fn func(context.Context) T) (v T, hung bool) {
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
	case <-time.After(grace):
		return v, true
	}
}

// StatusFor is the one map from a degradation-ladder reason to a file's
// status: no reason is OK, a recovered panic Crashed, a deadline
// TimedOut, and a budget stop or cancellation Degraded. Batch and
// module runs and the wire encoding all classify through it.
func StatusFor(reason pps.StopReason) Status {
	switch reason {
	case pps.StopNone:
		return OK
	case analysis.StopPanic:
		return Crashed
	case pps.StopDeadline:
		return TimedOut
	}
	return Degraded // budget, cancelled
}

// summarize folds the per-file results.
func summarize[T any](results []Result[T]) Summary {
	var s Summary
	for i := range results {
		r := &results[i]
		s.Add(r.Grade)
		s.Retries += r.Attempts - 1
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
