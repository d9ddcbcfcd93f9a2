package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uafcheck/internal/pps"
)

func analyzeTestdata(t *testing.T, name string, opts Options) *Result {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	res := AnalyzeSource(name, string(data), opts)
	if res.Diags.HasErrors() {
		t.Fatalf("frontend errors:\n%s", res.Diags)
	}
	return res
}

// TestFigure1Warnings reproduces the paper's headline example: the access
// of x in TASK B is the one potentially dangerous access; the accesses in
// TASK A are safe (the parent waits on doneA$) and TASK C accesses a
// local copy.
func TestFigure1Warnings(t *testing.T) {
	res := analyzeTestdata(t, "figure1.chpl", Options{Prune: true, KeepGraphs: true})
	ws := res.Warnings()
	if len(ws) != 1 {
		t.Fatalf("want exactly 1 warning, got %d:\n%v", len(ws), ws)
	}
	w := ws[0]
	if w.Var != "x" {
		t.Errorf("warned variable = %q, want x", w.Var)
	}
	if w.Task != "TASK B" {
		t.Errorf("warned task = %q, want TASK B", w.Task)
	}
	if w.Reason != pps.AfterFrontier {
		t.Errorf("reason = %v, want after-frontier", w.Reason)
	}
}

// TestFigure1SafeVariant: swapping the wait order (doneB$ consumed before
// doneA$ is filled) creates the wait chain B -> A -> parent, making every
// access safe (§I).
func TestFigure1SafeVariant(t *testing.T) {
	res := analyzeTestdata(t, "figure1_safe.chpl", Options{Prune: true})
	if ws := res.Warnings(); len(ws) != 0 {
		t.Fatalf("want no warnings for the swapped-wait variant, got %d:\n%v", len(ws), ws)
	}
}

// TestFigure1TaskCPruned: TASK C has no outer references (in-intent copy)
// and no sync events; pruning Rule A removes it (§III-A).
func TestFigure1TaskCPruned(t *testing.T) {
	res := analyzeTestdata(t, "figure1.chpl", Options{Prune: true, KeepGraphs: true})
	if len(res.Procs) != 1 {
		t.Fatalf("want 1 analyzed proc, got %d", len(res.Procs))
	}
	g := res.Procs[0].Graph
	pruned := 0
	for _, task := range g.Tasks {
		if task.Pruned {
			pruned++
			if task.Label != "TASK C" {
				t.Errorf("pruned %s, expected only TASK C", task.Label)
			}
		}
	}
	if pruned != 1 {
		t.Errorf("pruned %d tasks, want 1 (TASK C by rule A)", pruned)
	}
}

// TestFigure2CCFGShape checks the structural properties of Figure 2: four
// tasks, four sync nodes, and PF(x) = exactly the root strand's readFE.
func TestFigure2CCFGShape(t *testing.T) {
	res := analyzeTestdata(t, "figure1.chpl", Options{Prune: true, KeepGraphs: true})
	g := res.Procs[0].Graph
	if got := len(g.Tasks); got != 4 {
		t.Errorf("tasks = %d, want 4 (root, A, B, C)", got)
	}
	if got := g.SyncNodeCount(); got != 4 {
		t.Errorf("sync nodes in unpruned tasks = %d, want 4 "+
			"(writeEF doneB$, writeEF doneA$, readFE doneB$, readFE doneA$)", got)
	}
	// PF(x) must be the root strand's readFE(doneA$).
	var pfNodes int
	for _, nodes := range g.PF {
		for _, n := range nodes {
			pfNodes++
			if n.Task.Label != "root" {
				t.Errorf("PF node in task %s, want root strand", n.Task.Label)
			}
			if n.Sync == nil || n.Sync.Op.String() != "readFE" || n.Sync.Sym.Name != "doneA$" {
				t.Errorf("PF node sync = %v, want readFE(doneA$)", n.Sync)
			}
		}
	}
	if pfNodes != 1 {
		t.Errorf("PF node count = %d, want 1 (paper: PF={Node 7})", pfNodes)
	}
	// The graph must render without panicking and mention the pruned
	// task.
	text := g.Text()
	if !strings.Contains(text, "pruned: rule A") {
		t.Errorf("Text() missing pruned TASK C annotation:\n%s", text)
	}
	if dot := g.DOT(); !strings.Contains(dot, "digraph ccfg") {
		t.Errorf("DOT() output malformed")
	}
}

// TestFigure3PPSTrace explores Figure 1 with tracing on and checks the
// invariants of the paper's Figure 3 table: the dangerous access x@TASK B
// appears in the OV set of some sink state, and TASK A's accesses get
// promoted to the safe set via PF(x).
func TestFigure3PPSTrace(t *testing.T) {
	res := analyzeTestdata(t, "figure1.chpl",
		Options{Prune: true, KeepGraphs: true, PPS: pps.Options{Trace: true}})
	r := res.Procs[0].PPS
	if r.Stats.Sinks == 0 {
		t.Fatalf("no sink PPS reached")
	}
	if len(r.Trace) == 0 {
		t.Fatalf("trace empty")
	}
	promoted := false
	for _, row := range r.Trace {
		if strings.Contains(row.Remark, "PF(x)") {
			promoted = true
		}
	}
	if !promoted {
		t.Errorf("no PPS promoted accesses via PF(x); trace:\n%s", pps.FormatTrace(r.Trace))
	}
	if len(r.Unsafe) != 1 {
		t.Errorf("unsafe accesses = %d, want 1", len(r.Unsafe))
	}
}

// TestFigure6Warnings reproduces §III-D: with the branch present, the
// access of x in TASK B is potentially dangerous on the if-taken path.
func TestFigure6Warnings(t *testing.T) {
	res := analyzeTestdata(t, "figure6.chpl", Options{Prune: true, KeepGraphs: true})
	ws := res.Warnings()
	if len(ws) != 1 {
		t.Fatalf("want exactly 1 warning, got %d:\n%v", len(ws), ws)
	}
	if ws[0].Var != "x" || ws[0].Task != "TASK B" {
		t.Errorf("warning = %+v, want x in TASK B", ws[0])
	}
}

// TestFigure7PPSTrace checks the branching exploration of Figure 7: both
// the if-taken and the else initial states are generated, and the unsafe
// access is found only via the if path.
func TestFigure7PPSTrace(t *testing.T) {
	res := analyzeTestdata(t, "figure6.chpl",
		Options{Prune: true, KeepGraphs: true, PPS: pps.Options{Trace: true}})
	r := res.Procs[0].PPS
	initials := 0
	for _, row := range r.Trace {
		if row.TS == 0 {
			initials++
		}
	}
	if initials < 2 {
		t.Errorf("initial PPS count = %d, want >= 2 (if and else paths, paper PPS 0 and PPS 8)", initials)
	}
	if r.Stats.Sinks < 2 {
		t.Errorf("sink count = %d, want >= 2", r.Stats.Sinks)
	}
	if len(r.Unsafe) != 1 {
		t.Errorf("unsafe = %d, want 1", len(r.Unsafe))
	}
}
