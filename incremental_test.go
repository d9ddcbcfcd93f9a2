package uafcheck_test

// Property test of the tentpole guarantee: AnalyzeDelta's recombined
// cached-plus-fresh reports are byte-identical — through the canonical
// internal/wire encoding — to a from-scratch AnalyzeContext run, under
// random multi-procedure programs and random single-procedure edits.
// `make test-race` runs this under the race detector, which also
// exercises the concurrent-Analyzer path below.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"uafcheck"
	"uafcheck/internal/progen"
	"uafcheck/internal/wire"
)

// genProc generates one uniquely named top-level procedure.
func genProc(i int, seed int64, atomics bool) string {
	src := progen.Generate(seed, progen.Options{Budget: 14, MaxDepth: 2, Atomics: atomics})
	return strings.Replace(src, "proc fuzz(", fmt.Sprintf("proc p%d(", i), 1)
}

// fanoutProc generates one procedure pN that is a sync-variable fanout
// of 5–6 tasks, a shape genProc does not produce: its interleaving
// space makes PPS exploration the dominant per-procedure cost, the
// regime the memo store exists for.
func fanoutProc(i int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	tasks := 5 + rng.Intn(2)
	var sb strings.Builder
	fmt.Fprintf(&sb, "proc p%d() {\n  var x: int = %d;\n", i, rng.Intn(100))
	for t := 0; t < tasks; t++ {
		fmt.Fprintf(&sb, "  var d%d$: sync bool;\n", t)
	}
	for t := 0; t < tasks; t++ {
		fmt.Fprintf(&sb, "  begin with (ref x) {\n    x += %d;\n    d%d$ = true;\n  }\n", rng.Intn(50)+1, t)
	}
	for t := 0; t < tasks; t++ {
		fmt.Fprintf(&sb, "  d%d$;\n", t)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// wireBytes canonically encodes a report outcome the way every server
// and CLI surface does.
func wireBytes(t *testing.T, name string, rep *uafcheck.Report, err error) string {
	t.Helper()
	b, encErr := wire.NewResult(name, rep, err, false).Encode()
	if encErr != nil {
		t.Fatalf("wire encode: %v", encErr)
	}
	return string(b)
}

func requireIdentical(t *testing.T, ctx context.Context, an *uafcheck.Analyzer, name, src, label string) {
	t.Helper()
	drep, derr := an.AnalyzeDelta(ctx, name, src)
	frep, ferr := uafcheck.AnalyzeContext(ctx, name, src)
	if (derr == nil) != (ferr == nil) {
		t.Fatalf("%s: error mismatch: delta=%v fresh=%v\nsource:\n%s", label, derr, ferr, src)
	}
	got := wireBytes(t, name, drep, derr)
	want := wireBytes(t, name, frep, ferr)
	if got != want {
		t.Fatalf("%s: wire bytes differ\ndelta: %s\nfresh: %s\nsource:\n%s", label, got, want, src)
	}
}

func TestAnalyzeDeltaByteIdentity(t *testing.T) {
	ctx := context.Background()
	trials := 12
	if testing.Short() {
		trials = 4
	}
	// The extra last trial edits sync-variable fanouts.
	for trial := 0; trial <= trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			atomics := trial%3 == 0
			gen := func(i int, seed int64) string { return genProc(i, seed, atomics) }
			if trial == trials {
				gen = fanoutProc
			}
			n := 2 + rng.Intn(4)
			procs := make([]string, n)
			for i := range procs {
				procs[i] = gen(i, rng.Int63())
			}
			an := uafcheck.NewAnalyzer()
			name := fmt.Sprintf("prop%d.chpl", trial)
			join := func() string { return strings.Join(procs, "\n") }
			requireIdentical(t, ctx, an, name, join(), "initial")
			for edit := 0; edit < 5; edit++ {
				i := rng.Intn(n)
				procs[i] = gen(i, rng.Int63())
				requireIdentical(t, ctx, an, name, join(), fmt.Sprintf("edit%d(proc p%d)", edit, i))
			}
			st := an.Stats()
			if st.UnitHits == 0 {
				t.Errorf("expected some unit cache hits across 5 single-procedure edits, got stats %+v", st)
			}
		})
	}
}

// TestAnalyzeDeltaWarmHits pins the invalidation granularity: editing
// one procedure of a k-procedure file recomputes only that unit (plus
// any unit whose cross-procedure facts it changed), so a file of
// independent procedures yields k-1 hits per edit.
func TestAnalyzeDeltaWarmHits(t *testing.T) {
	ctx := context.Background()
	const n = 6
	procs := make([]string, n)
	for i := range procs {
		procs[i] = fmt.Sprintf("proc p%d() {\n  var x%d: int = 0;\n  begin with (ref x%d) {\n    x%d = 1;\n  }\n}\n", i, i, i, i)
	}
	an := uafcheck.NewAnalyzer()
	src := strings.Join(procs, "\n")
	if _, err := an.AnalyzeDelta(ctx, "warm.chpl", src); err != nil {
		t.Fatal(err)
	}
	if st := an.Stats(); st.UnitMisses != n || st.UnitHits != 0 {
		t.Fatalf("cold run: want %d misses, 0 hits; got %+v", n, st)
	}
	// Edit p2: new variable name changes its text but no cross-proc fact.
	procs[2] = "proc p2() {\n  var y: int = 3;\n  begin with (ref y) {\n    y = 4;\n  }\n}\n"
	if _, err := an.AnalyzeDelta(ctx, "warm.chpl", strings.Join(procs, "\n")); err != nil {
		t.Fatal(err)
	}
	if st := an.Stats(); st.UnitMisses != n+1 || st.UnitHits != n-1 {
		t.Fatalf("warm run after single edit: want %d misses, %d hits; got %+v", n+1, n-1, st)
	}
	// Re-analyzing unchanged content hits every unit.
	if _, err := an.AnalyzeDelta(ctx, "warm.chpl", strings.Join(procs, "\n")); err != nil {
		t.Fatal(err)
	}
	if st := an.Stats(); st.UnitHits != n-1+n {
		t.Fatalf("identical re-run: want %d total hits; got %+v", n-1+n, st)
	}
}

// TestAnalyzeDeltaPositionRebase pins the line-rebasing path: inserting
// lines above a memoized procedure must serve the unit from cache with
// every position rebased, matching the fresh run byte for byte.
func TestAnalyzeDeltaPositionRebase(t *testing.T) {
	ctx := context.Background()
	body := "proc q() {\n  var v: int = 0;\n  begin with (ref v) {\n    v = 1;\n  }\n}\n"
	an := uafcheck.NewAnalyzer()
	requireIdentical(t, ctx, an, "shift.chpl", body, "original")
	shifted := "proc filler() {\n  var a: int = 9;\n  begin with (ref a) {\n    a = 8;\n  }\n}\n\n\n" + body
	requireIdentical(t, ctx, an, "shift.chpl", shifted, "shifted")
	if st := an.Stats(); st.UnitHits == 0 {
		t.Fatalf("expected the shifted q unit to be served from cache; got %+v", st)
	}
}

// TestAnalyzeDeltaConcurrent drives one Analyzer from many goroutines —
// the uafserve /v1/delta usage — and checks every interleaving still
// matches the from-scratch bytes. Run under -race by `make test-race`.
func TestAnalyzeDeltaConcurrent(t *testing.T) {
	ctx := context.Background()
	an := uafcheck.NewAnalyzer()
	srcs := make([]string, 8)
	want := make([]string, len(srcs))
	for i := range srcs {
		srcs[i] = genProc(0, int64(42+i), false)
		rep, err := uafcheck.AnalyzeContext(ctx, "conc.chpl", srcs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = wireBytes(t, "conc.chpl", rep, nil)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				i := (g + k) % len(srcs)
				rep, err := an.AnalyzeDelta(ctx, "conc.chpl", srcs[i])
				if err != nil {
					errs <- err
					return
				}
				b, err := wire.NewResult("conc.chpl", rep, nil, false).Encode()
				if err != nil {
					errs <- err
					return
				}
				if string(b) != want[i] {
					errs <- fmt.Errorf("goroutine %d input %d: wire bytes differ", g, i)
					return
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
