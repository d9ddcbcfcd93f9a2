package pps

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"uafcheck/internal/bits"
)

// ladderRung writes a program in the shape of the benchmark's PPS
// ladder. Each of its tasks updates x, signals, passes the given number
// of if/else diamonds (each arm fills a different sync variable, so the
// arms never merge), signals again and then updates y after its last
// signal. A fanout rung drops the first signal and puts two branch
// diamonds in the parent instead.
func ladderRung(tasks, diamonds int, fanout bool) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("config const flag = true;")
	w("proc rung() {")
	w("  var x: int = 1;")
	w("  var y: int = 2;")
	for i := 0; i < tasks; i++ {
		if !fanout {
			w("  var a%d$: sync bool;", i)
		}
		w("  var d%d$: sync bool;", i)
		for k := 0; k < diamonds; k++ {
			w("  var e%d_%d$: sync bool;", i, k)
			w("  var f%d_%d$: sync bool;", i, k)
		}
	}
	for i := 0; i < tasks; i++ {
		w("  begin with (ref x, ref y) {")
		w("    x = x + %d;", i+1)
		if !fanout {
			w("    a%d$ = true;", i)
		}
		for k := 0; k < diamonds; k++ {
			w("    if (flag) { e%d_%d$ = true; } else { f%d_%d$ = true; }", i, k, i, k)
		}
		w("    d%d$ = true;", i)
		w("    y = y + %d;", i+1)
		w("  }")
	}
	if fanout {
		w("  if (flag) { writeln(1); } else { writeln(0); }")
		w("  if (flag) { writeln(2); } else { writeln(0); }")
	} else {
		for i := 0; i < tasks; i++ {
			w("  a%d$;", i)
		}
	}
	for i := 0; i < tasks; i++ {
		w("  d%d$;", i)
	}
	w("}")
	return b.String()
}

// flipAll toggles every member of [0, n) in s. The sets of a PPS are
// sized to their universe up front, so this writes every word they own:
// a set that shares words with another state cannot hide it.
func flipAll(s *bits.Set, n int) {
	for i := 0; i < n; i++ {
		if s.Has(i) {
			s.Remove(i)
		} else {
			s.Add(i)
		}
	}
}

// stateSnapshot is a deep copy of the sets a successor owns.
type stateSnapshot struct {
	state, ov, sv, visited []int
	counters               []uint8
}

func snapshot(p *PPS) stateSnapshot {
	return stateSnapshot{p.State.Elems(), p.OV.Elems(), p.SV.Elems(), p.Visited.Elems(),
		slices.Clone(p.Counters)}
}

// TestSuccessorSetsDoNotAlias fires an entry whose strand continues
// into three branch arms. computeFire clones the parent's working sets
// for every successor but the last, which takes them over. Writing
// through any successor's State, OV, SV, Visited or Counters must
// leave its siblings and the parent unchanged.
func TestSuccessorSetsDoNotAlias(t *testing.T) {
	g := buildGraph(t, `config const flag = true;
	config const other = false;
	proc f() {
	  var x: int = 1;
	  var d$: sync bool;
	  var e$: sync bool;
	  var h$: sync bool;
	  var k$: sync bool;
	  begin with (ref x) {
	    x = 2;
	    d$ = true;
	    if (flag) { e$ = true; } else if (other) { h$ = true; } else { k$ = true; }
	  }
	  d$;
	  x = 3;
	}`)
	e := newExplorer(g, Options{})
	var hit bool
	outs := e.expand(g.Root().Entry, nil, &hit)
	if len(outs) != 1 {
		t.Fatalf("%d initial outcomes, want 1", len(outs))
	}
	nNodes, nAcc, nSync := len(g.Nodes), len(g.Accesses), len(g.SyncVars)
	// The parent's sets hold something, so a successor write that
	// reaches them shows; its counter vector is arbitrary because
	// computeFire only copies it when no counted atomic fires.
	p := &PPS{
		Entries:  normalizeEntries(outs[0].entries),
		State:    bits.New(nSync),
		Counters: []uint8{7, 9},
		OV:       bits.New(nAcc),
		SV:       bits.New(nAcc),
		Visited:  bits.New(nNodes),
		Remark:   "initial",
	}
	p.State.Add(nSync - 1)
	p.SV.Add(nAcc - 1)
	p.Visited.Add(0)

	var out *stepOut
	for i, en := range p.Entries {
		if !e.executable(en, p.State, p.Counters) {
			continue
		}
		o := &stepOut{}
		e.computeFire(p, []int{i}, o)
		if len(o.succs) >= 3 {
			out = o
			break
		}
	}
	if out == nil {
		t.Fatal("no fire with three branch-arm successors")
	}
	if remark := out.succs[0].Remark; !strings.HasPrefix(remark, "r#3 N#") {
		t.Errorf("successor remark = %q, want a WRITE (r#3 N#...)", remark)
	}

	states := append([]*PPS{p}, out.succs...)
	snaps := make([]stateSnapshot, len(states))
	for i, s := range states {
		snaps[i] = snapshot(s)
	}
	for i, s := range out.succs {
		flipAll(&s.State, nSync)
		flipAll(&s.OV, nAcc)
		flipAll(&s.SV, nAcc)
		flipAll(&s.Visited, nNodes)
		for c := range s.Counters {
			s.Counters[c]++
		}
		for j, other := range states {
			if j == i+1 {
				snaps[j] = snapshot(other)
				continue
			}
			if got := snapshot(other); !reflect.DeepEqual(got, snaps[j]) {
				name := "parent"
				if j > 0 {
					name = fmt.Sprintf("successor %d", j-1)
				}
				t.Errorf("writing successor %d changed %s: %+v, was %+v", i, name, got, snaps[j])
			}
		}
	}
}

// TestParallelDeterminism explores a fan-out wide enough for the
// parallel compute phase at Parallelism 1 and 4; the results must be
// identical. Successor assembly runs in that phase, so under -race an
// ownership mistake there shows up as a data race.
func TestParallelDeterminism(t *testing.T) {
	g, seq := explore(t, ladderRung(5, 0, true), Options{Parallelism: 1, Trace: true})
	if seq.Stats.MaxWorklist < minParallelFrontier {
		t.Fatalf("peak frontier %d never reaches the parallel path (%d)",
			seq.Stats.MaxWorklist, minParallelFrontier)
	}
	for run := 0; run < 3; run++ {
		par := Explore(g, Options{Parallelism: 4, Trace: true})
		if !reflect.DeepEqual(par, seq) {
			t.Fatalf("run %d: Parallelism 4 differs from the sequential exploration\nseq stats %+v\npar stats %+v",
				run, seq.Stats, par.Stats)
		}
	}
}

// exploreAllocCeilings bound the allocations per processed state of a
// sequential exploration: the measured count (36.1, 51.1 and 57.6)
// plus a little slack, so a change that brings back per-successor
// garbage fails here first.
var exploreAllocCeilings = map[string]float64{
	"figure1":         38,
	"ladder-2x2":      53,
	"ladder-fanout-5": 60,
}

// TestExploreAllocations measures allocations per processed state for
// Figure 1 and fixed ladder rungs.
func TestExploreAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting in -short mode")
	}
	fig1, err := os.ReadFile("../../testdata/figure1.chpl")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, src string
	}{
		{"figure1", string(fig1)},
		{"ladder-2x2", ladderRung(2, 2, false)},
		{"ladder-fanout-5", ladderRung(5, 0, true)},
	} {
		g, res := explore(t, tc.src, Options{Parallelism: 1})
		states := res.Stats.StatesProcessed
		allocs := testing.AllocsPerRun(10, func() {
			Explore(g, Options{Parallelism: 1})
		}) / float64(states)
		t.Logf("%s: %.1f allocations per state (%d states)", tc.name, allocs, states)
		if ceiling := exploreAllocCeilings[tc.name]; allocs > ceiling {
			t.Errorf("%s: %.1f allocations per state, ceiling %.0f", tc.name, allocs, ceiling)
		}
	}
}
