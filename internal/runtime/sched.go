package runtime

import (
	"context"
	"math/rand"

	"uafcheck/internal/ast"
	"uafcheck/internal/parser"
	"uafcheck/internal/source"
	"uafcheck/internal/sym"
)

// Load parses and resolves one file for the interpreter. When the
// returned diagnostics hold an error, mod and info are nil.
func Load(filename, src string) (*ast.Module, *sym.Info, *source.Diagnostics) {
	diags := &source.Diagnostics{}
	mod := parser.ParseSource(filename, src, diags)
	if diags.HasErrors() {
		return nil, nil, diags
	}
	info := sym.Resolve(mod, diags)
	if diags.HasErrors() {
		return nil, nil, diags
	}
	return mod, info, diags
}

// RandomPolicy picks uniformly among runnable tasks with a seeded PRNG,
// giving reproducible schedule sampling.
type RandomPolicy struct {
	rng *rand.Rand
}

// NewRandomPolicy seeds a random scheduling policy.
func NewRandomPolicy(seed int64) *RandomPolicy {
	return &RandomPolicy{rng: rand.New(rand.NewSource(seed))}
}

// Choose implements Policy.
func (p *RandomPolicy) Choose(step int, runnable []int, cont int) int {
	return p.rng.Intn(len(runnable))
}

// replayPolicy follows a fixed decision prefix, then a default: the
// first runnable task, or with preferContinue the previously running
// one. Explore uses it for depth-first schedule enumeration.
type replayPolicy struct {
	prefix         []int
	preferContinue bool
}

// Choose implements Policy.
func (p *replayPolicy) Choose(step int, runnable []int, cont int) int {
	// step counts from 1.
	if step-1 < len(p.prefix) {
		c := p.prefix[step-1]
		if c < len(runnable) {
			return c
		}
		return len(runnable) - 1
	}
	if p.preferContinue && cont >= 0 {
		return cont
	}
	return 0
}

// ExploreResult aggregates observations across many schedules.
type ExploreResult struct {
	Runs      int
	UAF       map[string]UAFEvent // keyed by Var:Line
	Races     map[string]RaceEvent
	Deadlocks int
	// TotalSteps sums scheduler steps across all runs (oracle telemetry).
	TotalSteps int
	// Truncated reports whether the exploration hit its run budget
	// before exhausting the schedule tree.
	Truncated bool
	// Cancelled reports that the context fired before the exploration
	// finished; the observations so far are still valid (under-approx).
	Cancelled bool
}

// Observed reports whether some explored schedule hit a use-after-free
// of varName at line: a static warning at that site is a true positive.
func (er *ExploreResult) Observed(varName string, line int) bool {
	_, ok := er.UAF[UAFEvent{Var: varName, Line: line}.Key()]
	return ok
}

// run executes one schedule under policy and merges its events.
func (er *ExploreResult) run(ctx context.Context, mod *ast.Module, info *sym.Info, entry string, policy Policy) *RunResult {
	r := Run(mod, info, Config{Entry: entry, DetectRaces: true, Policy: policy, Ctx: ctx})
	er.Runs++
	for _, e := range r.UAF {
		if _, ok := er.UAF[e.Key()]; !ok {
			er.UAF[e.Key()] = e
		}
	}
	for _, e := range r.Races {
		if _, ok := er.Races[e.Key()]; !ok {
			er.Races[e.Key()] = e
		}
	}
	if r.Deadlock {
		er.Deadlocks++
	}
	er.TotalSteps += r.Steps
	if r.Cancelled {
		er.Cancelled = true
	}
	return r
}

func newExploreResult() *ExploreResult {
	return &ExploreResult{UAF: make(map[string]UAFEvent), Races: make(map[string]RaceEvent)}
}

// ExploreRandom runs n seeded random schedules under ctx. The context is
// polled between runs and inside each run's scheduler loop, so a
// pathological program cannot hold the oracle past its budget.
func ExploreRandom(ctx context.Context, mod *ast.Module, info *sym.Info, entry string, n int, seed int64) *ExploreResult {
	er := newExploreResult()
	for i := 0; i < n && !er.Cancelled; i++ {
		if ctx.Err() != nil {
			er.Cancelled = true
			break
		}
		er.run(ctx, mod, info, entry, NewRandomPolicy(seed+int64(i)))
	}
	return er
}

// Explore enumerates schedules depth-first, up to maxRuns executions.
// Each run replays a decision prefix and then follows a default policy;
// afterwards every decision at or past the prefix spawns a sibling
// prefix for each alternative the run did not take.
//
// With bound < 0 it walks the full tree: the default picks the first
// runnable task. For small programs (the paper's figures, corpus unit
// patterns) this covers the complete schedule space and is a sound
// oracle: an access is a true use-after-free iff some schedule
// triggers it.
//
// With bound >= 0 it allows at most bound PREEMPTIONS per schedule
// (iterative context bounding, the CHESS insight): the default continues
// the previously running task, and a decision costs one unit only when
// it switches away from a task that could have continued. Most
// concurrency bugs, including every use-after-free pattern in the
// paper, manifest within one or two preemptions, so the bounded space
// is exponentially smaller while keeping almost all bug-finding power.
//
// When ctx fires the enumeration stops with Cancelled and Truncated set.
func Explore(ctx context.Context, mod *ast.Module, info *sym.Info, entry string, maxRuns, bound int) *ExploreResult {
	er := newExploreResult()
	type job struct {
		prefix      []int
		preemptions int // along prefix
	}
	// preempts is the cost of taking alternative alt at decision i of r.
	preempts := func(r *RunResult, i, alt int) int {
		if bound >= 0 && r.ContIdx[i] >= 0 && alt != r.ContIdx[i] {
			return 1
		}
		return 0
	}
	stack := []job{{}}
	for len(stack) > 0 {
		if er.Runs >= maxRuns {
			er.Truncated = true
			return er
		}
		if ctx.Err() != nil {
			er.Cancelled, er.Truncated = true, true
			return er
		}
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r := er.run(ctx, mod, info, entry, &replayPolicy{prefix: j.prefix, preferContinue: bound >= 0})
		if r.Cancelled {
			er.Truncated = true
			return er
		}
		used := j.preemptions
		for i := len(j.prefix); i < len(r.Decisions); i++ {
			for alt := 0; alt < r.Alternatives[i]; alt++ {
				cost := preempts(r, i, alt)
				if alt == r.Decisions[i] || (bound >= 0 && used+cost > bound) {
					continue
				}
				np := make([]int, i+1)
				copy(np, r.Decisions[:i])
				np[i] = alt
				stack = append(stack, job{prefix: np, preemptions: used + cost})
			}
			used += preempts(r, i, r.Decisions[i])
		}
	}
	return er
}
