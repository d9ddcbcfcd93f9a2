// Package watch is the supervised repo-watch service behind
// `uafcheck -watch`: it polls a set of files or whole project trees,
// re-analyzes changed files through one long-lived incremental
// Analyzer, and prints warning diffs — while a watchdog keeps the loop
// alive when an analysis hangs.
//
// Supervision model. The service is always in one of three states:
//
//   - healthy: every file analyzed cleanly on the latest poll;
//   - degraded: something went wrong this poll (an analysis errored or
//     returned a degraded conservative-superset report) but the loop is
//     running — the last-known-good warning set for each file keeps
//     being served;
//   - wedged: an analysis overran its hang timeout plus grace and was
//     abandoned by batch.AttemptGrace, the supervisor every multi-file
//     path shares. Last-known-good warnings keep being served, and the next
//     poll retries the same content on the same Analyzer: an abandoned
//     call holds none of the memo store's locks and stores no partial
//     unit, so it blocks no later call.
//
// A clean pass returns the service to healthy from either degraded
// state. Transitions, per-file diffs and watchdog actions all print to
// Config.Out with the stable "watch: " prefix, and the obs counters
// watch.polls/changed_files/deleted_files/abandoned plus the
// watch.state/watch.files gauges make the machine observable from
// metrics alone.
package watch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"uafcheck"
	"uafcheck/internal/batch"
	"uafcheck/internal/fault"
	"uafcheck/internal/obs"
)

// State is the watchdog's supervision state.
type State int32

const (
	// StateHealthy: the latest poll analyzed every changed file cleanly.
	StateHealthy State = iota
	// StateDegraded: the loop is serving, but the latest poll hit an
	// analysis error or a degraded (conservative-superset) report.
	StateDegraded
	// StateWedged: a hung analysis was abandoned; the next poll retries
	// it. Last-known-good warnings keep being served meanwhile.
	StateWedged
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateWedged:
		return "wedged"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// ErrAbandoned is returned (wrapped) when the watchdog gives up on a
// hung analysis.
var ErrAbandoned = errors.New("watch: analysis abandoned by watchdog")

// Config configures a Service. Roots and Analyzer are required.
type Config struct {
	// Roots are the files and/or directory trees to watch. Directories
	// are rescanned every poll (recursive) for .chpl files, picking up
	// created files and dropping deleted ones; explicit file roots are
	// watched whatever their extension.
	Roots []string
	// Interval is the poll period (default 500ms).
	Interval time.Duration
	// HangTimeout bounds one file's analysis. The analysis context is
	// cancelled at HangTimeout, and the analysis degrades; a worker that
	// ignores even the cancellation is abandoned at HangTimeout plus a
	// grace of max(HangTimeout, 30s), and the file is retried on the
	// next poll. Default 30s.
	HangTimeout time.Duration
	// Out receives diffs and supervision events; nil discards them.
	Out io.Writer
	// Analyzer is the incremental analyzer every poll runs through, for
	// the service's whole life. Must be non-nil.
	Analyzer *uafcheck.Analyzer
	// Options are the analysis options of every call on Analyzer. A
	// WithDeadline here would be a second clock beside HangTimeout;
	// leave it out.
	Options []uafcheck.Option
}

// Status is a point-in-time snapshot of the supervision state, the
// shape /statusz-style surfaces report.
type Status struct {
	// State is the current watchdog state.
	State State
	// Files is the number of files currently tracked.
	Files int
	// Abandoned counts analyses the watchdog gave up on.
	Abandoned int64
	// LastError is the most recent analysis failure ("" when none).
	LastError string
}

// fileState tracks one watched file between polls.
type fileState struct {
	src      string   // last content analyzed
	warnings []string // last-known-good rendered warning set
	known    bool     // at least one successful analysis happened
}

// Service is the supervised watch loop. Create with New, drive with
// Run; Status, Warnings and Metrics are safe to call concurrently from
// other goroutines (the tree-scan tests and a future /statusz handler do).
type Service struct {
	cfg   Config
	grace time.Duration // abandon point past HangTimeout
	rec   *obs.Recorder

	mu        sync.Mutex
	state     State
	files     map[string]*fileState
	abandoned int64
	lastErr   string
}

// New creates a Service; Run starts it.
func New(cfg Config) *Service {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.HangTimeout <= 0 {
		cfg.HangTimeout = 30 * time.Second
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	return &Service{
		cfg:   cfg,
		grace: max(cfg.HangTimeout, minGrace),
		rec:   obs.New(),
		files: make(map[string]*fileState),
	}
}

// Run polls until ctx is cancelled. The first pass reports every
// file's full warning set; later passes print diffs only.
func (s *Service) Run(ctx context.Context) {
	s.pass(ctx, true)
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.pass(ctx, false)
		}
	}
}

// Status returns the current supervision snapshot.
func (s *Service) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		State:     s.state,
		Files:     len(s.files),
		Abandoned: s.abandoned,
		LastError: s.lastErr,
	}
}

// Warnings returns the last-known-good rendered warning set for path —
// what the service keeps serving while degraded or wedged.
func (s *Service) Warnings(path string) ([]string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.files[path]
	if !ok || !st.known {
		return nil, false
	}
	return append([]string(nil), st.warnings...), true
}

// Metrics returns the session aggregate: the watch loop's own counters
// and gauges plus every analyzed report's telemetry (absorbed, so no
// trace spans). The result is a copy; later passes do not change it.
func (s *Service) Metrics() uafcheck.Metrics {
	return s.rec.Snapshot()
}

// pass is one poll: rescan the tree, drop deleted files, re-analyze
// changed ones under the watchdog, and settle the supervision state.
func (s *Service) pass(ctx context.Context, first bool) {
	s.rec.Add(obs.CtrWatchPolls, 1)
	present := s.scan(first)
	s.dropDeleted(present)

	clean := true
	for _, p := range present {
		select {
		case <-ctx.Done():
			return
		default:
		}
		if !s.checkFile(ctx, p, first) {
			clean = false
		}
	}

	s.mu.Lock()
	// A clean pass earns healthy back from either degraded state.
	if clean {
		s.setStateLocked(StateHealthy)
	}
	// Gauges are high-water marks: the aggregate answers "how bad did
	// supervision get" and "how many files at peak", while Status gives
	// the live values.
	s.rec.Max(obs.GaugeWatchState, int64(s.state))
	s.rec.Max(obs.GaugeWatchFiles, int64(len(s.files)))
	s.mu.Unlock()
}

// scan resolves the roots to the sorted set of files watched this
// poll. Directory roots are walked recursively for .chpl files; file
// roots are included as long as they exist. Root-level errors print on
// the first pass only (a missing root later is just "no files").
func (s *Service) scan(first bool) []string {
	seen := make(map[string]bool)
	for _, root := range s.cfg.Roots {
		info, err := os.Stat(root)
		if err != nil {
			if first {
				fmt.Fprintf(s.cfg.Out, "watch: %s: %v\n", root, err)
			}
			continue
		}
		if !info.IsDir() {
			seen[root] = true
			continue
		}
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil // unreadable subtrees degrade to absence
			}
			if strings.HasSuffix(path, ".chpl") {
				seen[path] = true
			}
			return nil
		})
	}
	present := make([]string, 0, len(seen))
	for p := range seen {
		present = append(present, p)
	}
	sort.Strings(present)
	return present
}

// dropDeleted removes state for files that vanished since the last
// poll, printing a removal diff for their warnings — deletion is an
// ordinary edit, not an error.
func (s *Service) dropDeleted(present []string) {
	here := make(map[string]bool, len(present))
	for _, p := range present {
		here[p] = true
	}
	s.mu.Lock()
	var gone []string
	for p := range s.files {
		if !here[p] {
			gone = append(gone, p)
		}
	}
	sort.Strings(gone)
	for _, p := range gone {
		st := s.files[p]
		delete(s.files, p)
		s.rec.Add(obs.CtrWatchDeleted, 1)
		fmt.Fprintf(s.cfg.Out, "watch: %s: deleted, dropping %d warning(s)\n", p, len(st.warnings))
		for _, w := range st.warnings {
			fmt.Fprintf(s.cfg.Out, "- %s\n", w)
		}
	}
	s.mu.Unlock()
}

// checkFile re-analyzes p when its content changed. Returns false when
// this file left the pass less than clean (read error, analysis error,
// degraded report or abandoned analysis).
func (s *Service) checkFile(ctx context.Context, p string, first bool) bool {
	s.mu.Lock()
	st := s.files[p]
	if st == nil {
		st = &fileState{}
		s.files[p] = st
	}
	prev := st.src
	s.mu.Unlock()

	data, err := os.ReadFile(p)
	if err == nil {
		err = fault.Err(fault.WatchRead)
	}
	if err != nil {
		if os.IsNotExist(err) {
			// Deleted between scan and read; the next poll's scan prints
			// the removal diff.
			return true
		}
		if first {
			fmt.Fprintf(s.cfg.Out, "watch: %s: %v\n", p, err)
		}
		s.noteError(err)
		return false
	}
	src := string(data)
	if !first && src == prev {
		return true
	}
	s.rec.Add(obs.CtrWatchChanged, 1)

	rep, err := s.analyzeGuarded(ctx, p, src)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return true // shutdown, not a failure
		}
		if errors.Is(err, ErrAbandoned) {
			// Leave st.src alone so the next poll retries this content.
			return false
		}
		// Frontend failure mid-edit is normal; record the content so an
		// unchanged broken file is not re-parsed (and re-reported) every
		// poll, and keep the last good warning set so the eventual diff
		// is against it.
		s.mu.Lock()
		st.src = src
		s.mu.Unlock()
		fmt.Fprintf(s.cfg.Out, "watch: %s: %v\n", p, err)
		s.noteError(err)
		return false
	}

	s.mu.Lock()
	st.src = src
	s.mu.Unlock()
	s.rec.Absorb(rep.Metrics)
	uafcheck.SortWarnings(rep.Warnings)
	next := make([]string, len(rep.Warnings))
	for i, w := range rep.Warnings {
		next[i] = w.String()
	}

	clean := rep.Degraded == nil
	if !clean {
		// A degraded report is a sound conservative superset — safe to
		// serve and diff, but the pass is not healthy.
		fmt.Fprintf(s.cfg.Out, "watch: %s: degraded analysis (%s), warnings are a conservative superset\n",
			p, rep.Degraded.Reason)
		s.noteError(fmt.Errorf("degraded analysis of %s: %s", p, rep.Degraded.Reason))
	}

	s.mu.Lock()
	known := st.known
	old := st.warnings
	st.warnings = next
	st.known = true
	s.mu.Unlock()

	if first || !known {
		fmt.Fprintf(s.cfg.Out, "watch: %s: %d warning(s)\n", p, len(next))
		for _, w := range next {
			fmt.Fprintf(s.cfg.Out, "+ %s\n", w)
		}
		return clean
	}
	added, removed := DiffWarnings(old, next)
	if len(added)+len(removed) > 0 {
		fmt.Fprintf(s.cfg.Out, "watch: %s: %+d/-%d warning(s)\n", p, len(added), len(removed))
		for _, w := range removed {
			fmt.Fprintf(s.cfg.Out, "- %s\n", w)
		}
		for _, w := range added {
			fmt.Fprintf(s.cfg.Out, "+ %s\n", w)
		}
	}
	return clean
}

// minGrace is the least time the watchdog waits past HangTimeout
// before it abandons an analysis. The parser, the resolver and the
// module linker do not watch the context, so a large file under a
// small HangTimeout runs past it without hanging; it must degrade, not
// be abandoned (leaking a goroutine) on every poll.
const minGrace = 30 * time.Second

// analyzeGuarded runs one analysis under batch.AttemptGrace: the
// analysis context is cancelled at HangTimeout, and a worker that
// ignores even that is abandoned at HangTimeout plus grace — its
// goroutine is left to finish on its own, and the service goes wedged
// until a clean pass.
func (s *Service) analyzeGuarded(ctx context.Context, path, src string) (*uafcheck.Report, error) {
	type result struct {
		rep *uafcheck.Report
		err error
	}
	r, hung := batch.AttemptGrace(ctx, s.cfg.HangTimeout, s.grace, func(actx context.Context) result {
		rep, err := s.cfg.Analyzer.AnalyzeDelta(actx, path, src, s.cfg.Options...)
		return result{rep, err}
	})
	if ctx.Err() != nil {
		return nil, ctx.Err() // shutdown, not a hang
	}
	if hung {
		s.abandon(path)
		return nil, fmt.Errorf("%w: %s did not return within %v plus grace",
			ErrAbandoned, path, s.cfg.HangTimeout)
	}
	return r.rep, r.err
}

// abandon records a hung analysis the watchdog gave up on.
func (s *Service) abandon(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.abandoned++
	s.rec.Add(obs.CtrWatchAbandoned, 1)
	s.lastErr = fmt.Sprintf("analysis of %s abandoned after %v", path, s.cfg.HangTimeout)
	s.setStateLocked(StateWedged)
	fmt.Fprintf(s.cfg.Out, "watch: analysis of %s abandoned (hang watchdog); retrying on the next poll\n", path)
}

// noteError records a failure and degrades the state (never past
// wedged — an already-wedged service stays wedged).
func (s *Service) noteError(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastErr = err.Error()
	if s.state == StateHealthy {
		s.setStateLocked(StateDegraded)
	}
}

// setStateLocked transitions the state machine, printing observable
// transitions. Caller holds s.mu.
func (s *Service) setStateLocked(next State) {
	if s.state == next {
		return
	}
	fmt.Fprintf(s.cfg.Out, "watch: state %s -> %s\n", s.state, next)
	s.state = next
}

// DiffWarnings computes the multiset difference between two rendered
// warning lists: which lines appeared and which disappeared. Both
// outputs come back sorted for stable display.
func DiffWarnings(old, new []string) (added, removed []string) {
	counts := make(map[string]int, len(old))
	for _, w := range old {
		counts[w]++
	}
	for _, w := range new {
		if counts[w] > 0 {
			counts[w]--
		} else {
			added = append(added, w)
		}
	}
	for w, n := range counts {
		for i := 0; i < n; i++ {
			removed = append(removed, w)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}
