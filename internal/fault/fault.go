// Package fault is the deterministic fault-injection layer: named
// injection points threaded through the long-running surfaces (disk
// cache I/O, the per-procedure analysis pipeline, the watch service)
// that fire filesystem errors, torn writes, delays and panics under a
// seedable schedule. Production binaries pay one atomic load per point
// when injection is off; the chaos suite (make chaos) and the hidden
// -faults flag of uafserve turn it on.
//
// Determinism contract: each point owns an independent splitmix64
// stream seeded from (seed, point name), and a firing decision depends
// only on the point's hit ordinal. Two runs with the same seed and the
// same per-point hit counts fire the same decisions regardless of how
// goroutines interleave across points — which is what lets the chaos
// suite run a fixed seed matrix under -race and still assert on
// outcomes.
package fault

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Injection point names. A point is just a string; these constants
// cover the instrumented call sites so specs and tests do not drift.
const (
	// CacheRead fails disk-cache entry reads (I/O error, not corruption).
	CacheRead = "cache.fs.read"
	// CacheWrite fails disk-cache entry writes before any byte lands.
	CacheWrite = "cache.fs.write"
	// CacheRename fails the temp-file -> final-name commit rename.
	CacheRename = "cache.fs.rename"
	// CacheTorn mangles (truncates or bit-flips) the encoded entry on
	// its way to disk — a torn write that the per-entry checksum must
	// catch on read.
	CacheTorn = "cache.fs.torn"
	// AnalysisPanic panics inside the per-procedure pipeline, exercising
	// the crash-recovery rung of the degradation ladder.
	AnalysisPanic = "analysis.panic"
	// AnalysisDelay sleeps inside the per-procedure pipeline — a slow or
	// (with a large delay) effectively hung worker; also the stand-in
	// for a delayed clock, since every deadline the pipeline checks is
	// measured against the stalled wall time.
	AnalysisDelay = "analysis.delay"
	// WatchRead fails source-file reads in the watch service's poll loop.
	WatchRead = "watch.fs.read"
)

// Mode says what a rule does when it fires.
type Mode string

const (
	// ModeError makes Err return an *InjectedError.
	ModeError Mode = "err"
	// ModePanic makes MaybePanic panic with PanicPrefix + point.
	ModePanic Mode = "panic"
	// ModeDelay makes Sleep block for the rule's Delay.
	ModeDelay Mode = "delay"
	// ModeTorn makes Mangle truncate or corrupt the passed bytes.
	ModeTorn Mode = "torn"
)

// PanicPrefix starts every injected panic value, so recovery layers and
// tests can tell injected crashes from real ones.
const PanicPrefix = "fault: injected panic at "

// InjectedError is the error Err returns when an error rule fires.
type InjectedError struct {
	Point string
}

func (e *InjectedError) Error() string {
	return "fault: injected error at " + e.Point
}

// Rule arms one injection point.
type Rule struct {
	// Point names the instrumented call site (see the constants above).
	Point string
	// Mode selects the effect.
	Mode Mode
	// Prob is the per-hit firing probability in [0, 1].
	Prob float64
	// Count caps the number of fires (0 = unlimited).
	Count int64
	// Delay is the sleep duration for ModeDelay rules.
	Delay time.Duration
}

// pointState is one armed point: its rule, its private PRNG stream and
// its traffic counters.
type pointState struct {
	rule  Rule
	rng   uint64
	hits  int64
	fired int64
}

// Injector evaluates rules at injection points. Safe for concurrent
// use; a nil *Injector is inert.
type Injector struct {
	mu     sync.Mutex
	points map[string]*pointState
}

// New arms an injector with the given rules under one seed. Multiple
// rules on the same point are rejected by Parse but the last one wins
// here; keep points unique.
func New(seed int64, rules ...Rule) *Injector {
	in := &Injector{points: make(map[string]*pointState, len(rules))}
	for _, r := range rules {
		in.points[r.Point] = &pointState{
			rule: r,
			rng:  mix(uint64(seed) ^ strhash(r.Point)),
		}
	}
	return in
}

// Parse builds an injector from a compact spec string:
//
//	point=mode:prob[:count[:delay]] [; more rules]
//
// e.g. "cache.fs.write=err:1:3; analysis.panic=panic:0.25" arms the
// first three disk-cache writes to fail and every per-proc analysis to
// panic with probability 0.25. Delay accepts time.ParseDuration syntax.
func Parse(seed int64, spec string) (*Injector, error) {
	var rules []Rule
	seen := make(map[string]bool)
	for _, part := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		point, rest, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fault: rule %q: want point=mode:prob[:count[:delay]]", part)
		}
		point = strings.TrimSpace(point)
		if seen[point] {
			return nil, fmt.Errorf("fault: duplicate rule for point %q", point)
		}
		seen[point] = true
		fields := strings.Split(rest, ":")
		if len(fields) < 2 || len(fields) > 4 {
			return nil, fmt.Errorf("fault: rule %q: want mode:prob[:count[:delay]]", part)
		}
		r := Rule{Point: point, Mode: Mode(strings.TrimSpace(fields[0]))}
		switch r.Mode {
		case ModeError, ModePanic, ModeDelay, ModeTorn:
		default:
			return nil, fmt.Errorf("fault: rule %q: unknown mode %q", part, fields[0])
		}
		prob, err := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		if err != nil || prob < 0 || prob > 1 {
			return nil, fmt.Errorf("fault: rule %q: bad probability %q", part, fields[1])
		}
		r.Prob = prob
		if len(fields) >= 3 {
			n, err := strconv.ParseInt(strings.TrimSpace(fields[2]), 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("fault: rule %q: bad count %q", part, fields[2])
			}
			r.Count = n
		}
		if len(fields) == 4 {
			d, err := time.ParseDuration(strings.TrimSpace(fields[3]))
			if err != nil {
				return nil, fmt.Errorf("fault: rule %q: bad delay %q", part, fields[3])
			}
			r.Delay = d
		}
		if r.Mode == ModeDelay && r.Delay <= 0 {
			return nil, fmt.Errorf("fault: rule %q: delay mode needs a delay", part)
		}
		rules = append(rules, r)
	}
	return New(seed, rules...), nil
}

// fire records a hit at point and reports whether its rule fires,
// advancing the point's PRNG stream exactly once per hit.
func (in *Injector) fire(point string) (Rule, bool) {
	if in == nil {
		return Rule{}, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	ps, ok := in.points[point]
	if !ok {
		return Rule{}, false
	}
	ps.hits++
	if ps.rule.Count > 0 && ps.fired >= ps.rule.Count {
		return Rule{}, false
	}
	ps.rng = mix(ps.rng)
	// 53 uniform bits -> [0, 1).
	u := float64(ps.rng>>11) / (1 << 53)
	if u >= ps.rule.Prob {
		return Rule{}, false
	}
	ps.fired++
	return ps.rule, true
}

// Err reports an injected error for an armed ModeError point, else nil.
func (in *Injector) Err(point string) error {
	if r, ok := in.fire(point); ok && r.Mode == ModeError {
		return &InjectedError{Point: point}
	}
	return nil
}

// MaybePanic panics when an armed ModePanic point fires.
func (in *Injector) MaybePanic(point string) {
	if r, ok := in.fire(point); ok && r.Mode == ModePanic {
		panic(PanicPrefix + point)
	}
}

// Sleep blocks for the rule's Delay when an armed ModeDelay point
// fires. It deliberately ignores contexts: an injected stall models a
// worker that stopped responding, which is exactly what watchdogs must
// survive.
func (in *Injector) Sleep(point string) {
	if r, ok := in.fire(point); ok && r.Mode == ModeDelay {
		time.Sleep(r.Delay)
	}
}

// Mangle corrupts b when an armed ModeTorn point fires: most fires
// truncate (a torn write that lost its tail), the rest flip one byte
// (bit rot). The input slice is never modified; a fresh slice is
// returned on corruption.
func (in *Injector) Mangle(point string, b []byte) []byte {
	r, ok := in.fire(point)
	if !ok || r.Mode != ModeTorn || len(b) == 0 {
		return b
	}
	in.mu.Lock()
	ps := in.points[point]
	ps.rng = mix(ps.rng)
	u := ps.rng
	in.mu.Unlock()
	if u%4 != 0 { // 3/4 torn tail, 1/4 bit flip
		keep := int(u % uint64(len(b)))
		return append([]byte(nil), b[:keep]...)
	}
	out := append([]byte(nil), b...)
	out[int(u/4)%len(out)] ^= 0x40
	return out
}

// Fired returns how many times the point's rule has fired.
func (in *Injector) Fired(point string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if ps, ok := in.points[point]; ok {
		return ps.fired
	}
	return 0
}

// Hits returns how many times the point was reached.
func (in *Injector) Hits(point string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if ps, ok := in.points[point]; ok {
		return ps.hits
	}
	return 0
}

// ------------------------------------------------------- global switch

// active is the process-wide injector consulted by the package-level
// functions at every instrumented call site. nil (the default) makes
// every site a no-op after a single atomic load.
var active atomic.Pointer[Injector]

// Set installs in as the process-wide injector and returns a restore
// function that reinstates the previous one — tests defer it so
// injection never leaks across cases.
func Set(in *Injector) (restore func()) {
	prev := active.Swap(in)
	return func() { active.Store(prev) }
}

// Active returns the installed injector (nil when injection is off).
func Active() *Injector { return active.Load() }

// Err consults the global injector; see Injector.Err.
func Err(point string) error { return active.Load().Err(point) }

// MaybePanic consults the global injector; see Injector.MaybePanic.
func MaybePanic(point string) { active.Load().MaybePanic(point) }

// Sleep consults the global injector; see Injector.Sleep.
func Sleep(point string) { active.Load().Sleep(point) }

// Mangle consults the global injector; see Injector.Mangle.
func Mangle(point string, b []byte) []byte { return active.Load().Mangle(point, b) }

// ------------------------------------------------------------- hashing

// mix is splitmix64's output function: a full-avalanche step used both
// to derive per-point seeds and to advance each point's stream.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// strhash is FNV-1a, inlined to keep the package dependency-free.
func strhash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
