package eval

// Differential soundness testing: generate random MiniChapel task
// programs (structurally, not from the corpus templates), run the static
// analysis AND the exhaustive dynamic schedule explorer, and check the
// soundness direction the paper claims: every use-after-free observable
// at run time is reported by the compile-time pass.
//
// The converse (precision) deliberately does NOT hold — atomics and other
// non-modelled synchronization produce false positives (§IV-A, §V) — so
// only dynamic ⊆ static is asserted.
//
// Loops are excluded from the generator: the paper's analysis declares
// loops containing sync nodes or begins out of scope (§IV-A), and
// subsuming them is not sound by construction.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"uafcheck/internal/analysis"
	"uafcheck/internal/ast"
	"uafcheck/internal/progen"
	"uafcheck/internal/runtime"
)

// diffShards is how many parallel subtests split a differential seed
// loop; seed s runs in shard s mod diffShards.
const diffShards = 4

// shardSeeds runs check on every seed in [0, n), split across parallel
// subtests, and returns once all of them have finished.
func shardSeeds(t *testing.T, n int64, check func(t *testing.T, seed int64)) {
	t.Run("shards", func(t *testing.T) {
		for shard := int64(0); shard < diffShards; shard++ {
			t.Run(fmt.Sprint(shard), func(t *testing.T) {
				t.Parallel()
				for seed := shard; seed < n; seed += diffShards {
					check(t, seed)
				}
			})
		}
	})
}

// TestDifferentialSoundness is the repo's strongest end-to-end check:
// across hundreds of random programs, no dynamically observed
// use-after-free may escape the static analysis.
func TestDifferentialSoundness(t *testing.T) {
	const programs = 250
	var checked, uafPrograms atomic.Int64
	shardSeeds(t, programs, func(t *testing.T, seed int64) {
		src := progen.Generate(seed, progen.Options{})
		mod, info, diags := runtime.Load("fuzz.chpl", src)
		if diags.HasErrors() {
			t.Fatalf("seed %d: generator produced invalid program:\n%s\n%s", seed, diags, src)
		}

		res := analysis.AnalyzeSource("fuzz.chpl", src, analysis.DefaultOptions())
		staticSites := make(map[string]bool)
		for _, w := range res.Warnings() {
			staticSites[fmt.Sprintf("%s:%d", w.Var, w.AccessLine)] = true
		}

		er := runtime.Explore(context.Background(), mod, info, "fuzz", 3000, -1)
		checked.Add(1)
		if len(er.UAF) > 0 {
			uafPrograms.Add(1)
		}
		for key, ev := range er.UAF {
			if !staticSites[key] {
				t.Fatalf("seed %d: SOUNDNESS VIOLATION — dynamic UAF %s (task %s) "+
					"not statically warned\nstatic sites: %v\nprogram:\n%s",
					seed, key, ev.Task, staticSites, src)
			}
		}
	})
	if uafPrograms.Load() == 0 {
		t.Fatalf("fuzzer degenerate: none of %d programs produced a dynamic UAF", checked.Load())
	}
	t.Logf("differential check: %d programs, %d with real UAFs, 0 soundness violations",
		checked.Load(), uafPrograms.Load())
}

// TestDifferentialDeadlockAgreement: when the exhaustive dynamic explorer
// finds a deadlock schedule, the PPS exploration should have found a
// stuck state too (or the program has tasks the analysis pruned away —
// pruned tasks never deadlock since they contain no shared sync ops).
func TestDifferentialDeadlockAgreement(t *testing.T) {
	var found atomic.Int64
	shardSeeds(t, 150, func(t *testing.T, seed int64) {
		src := progen.Generate(seed+10000, progen.Options{})
		mod, info, diags := runtime.Load("fuzz.chpl", src)
		if diags.HasErrors() {
			return
		}
		if !ast.HasBegin(mod) {
			// The paper's pass only analyzes procedures containing begin
			// tasks (§III); a sequential self-deadlock is out of scope.
			return
		}
		er := runtime.Explore(context.Background(), mod, info, "fuzz", 2000, -1)
		if er.Deadlocks == 0 {
			return
		}
		found.Add(1)
		opts := analysis.DefaultOptions()
		opts.KeepGraphs = true
		res := analysis.AnalyzeSource("fuzz.chpl", src, opts)
		stuck, pruned := 0, 0
		for _, pr := range res.Procs {
			stuck += pr.Deadlocks
			pruned += pr.GraphStats.PrunedTasks
		}
		// A deadlock confined to a pruned task (no outer-variable
		// accesses, self-contained sync vars) is invisible by design:
		// pruning preserves warning correctness, not liveness reporting.
		if stuck == 0 && pruned == 0 {
			t.Fatalf("seed %d: dynamic deadlock not predicted statically\nprogram:\n%s",
				seed+10000, src)
		}
	})
	if found.Load() == 0 {
		t.Skip("no deadlocking programs generated in this window")
	}
	t.Logf("deadlock agreement: %d deadlocking programs all predicted", found.Load())
}
