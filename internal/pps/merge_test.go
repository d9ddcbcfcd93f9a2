package pps

import (
	"testing"

	"uafcheck/internal/ccfg"
)

// TestMergeKeepsSharedPendingIntact merges into two states whose
// Pending slices share one backing array with spare capacity, as
// successors of one parent do. Each merge must leave the other state's
// pending nodes as they were.
func TestMergeKeepsSharedPendingIntact(t *testing.T) {
	syncNode := &ccfg.Node{ID: 0}
	a, b, c := &ccfg.Node{ID: 1}, &ccfg.Node{ID: 2}, &ccfg.Node{ID: 3}
	shared := make([]*ccfg.Node, 1, 4)
	shared[0] = a
	state := func(pending ...*ccfg.Node) *PPS {
		return &PPS{Entries: []Entry{{Sync: syncNode, Pending: pending}}}
	}
	// Passing shared... hands both states the slice itself, capacity
	// included.
	s1, s2 := state(shared...), state(shared...)

	e := &explorer{}
	if !e.merge(s1, state(b)) || !e.merge(s2, state(c)) {
		t.Fatal("merging a new pending node reported no change")
	}
	ids := func(p *PPS) []int {
		var out []int
		for _, n := range p.Entries[0].Pending {
			out = append(out, n.ID)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		p    *PPS
		want []int
	}{{"first", s1, []int{1, 2}}, {"second", s2, []int{1, 3}}} {
		got := ids(tc.p)
		if len(got) != len(tc.want) || got[0] != tc.want[0] || got[1] != tc.want[1] {
			t.Errorf("%s merged state pending = %v, want %v", tc.name, got, tc.want)
		}
	}
	if shared[:2][1] != nil {
		t.Errorf("merge wrote into the shared array's spare capacity")
	}
}
