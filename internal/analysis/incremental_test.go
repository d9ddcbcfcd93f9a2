package analysis

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"uafcheck/internal/cache"
	"uafcheck/internal/obs"
	"uafcheck/internal/progen"
	"uafcheck/internal/source"
)

// render flattens an analysis result into a comparable transcript:
// every diagnostic in emission order plus every warning rendered the
// way the compiler prints it.
func render(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(res.Diags.String())
	for _, pr := range res.Procs {
		for _, w := range pr.Warnings {
			b.WriteString(w.String())
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s nodes=%d tasks=%d pruned=%d states=%d sinks=%d deadlocks=%d atomics=%t\n",
			pr.Proc.Name.Name, pr.GraphStats.Nodes, pr.GraphStats.Tasks,
			pr.GraphStats.PrunedTasks, pr.PPSStats.StatesCreated,
			pr.PPSStats.Sinks, pr.Deadlocks, pr.HasAtomics)
	}
	return b.String()
}

// checkIncr runs the incremental engine against the from-scratch
// pipeline and requires identical transcripts; it returns the traffic.
func checkIncr(t *testing.T, units *Units, src string) IncrStats {
	t.Helper()
	opts := DefaultOptions()
	inc, stats := AnalyzeSourceIncremental("t.chpl", src, opts, units)
	fresh := AnalyzeSource("t.chpl", src, opts)
	if got, want := render(t, inc), render(t, fresh); got != want {
		t.Fatalf("incremental and fresh transcripts differ\nincremental:\n%s\nfresh:\n%s\nsource:\n%s", got, want, src)
	}
	return stats
}

// TestIncrementalSyncedBitInvalidation pins the cross-procedure rule of
// §III-A: wrapping a unit's call sites in sync blocks elsewhere in the
// module changes the unit's synced-scope bit, so the memo entry must be
// invalidated even though the unit's own text is unchanged.
func TestIncrementalSyncedBitInvalidation(t *testing.T) {
	unit := `proc u(ref x: int) {
  begin with (ref x) {
    x = 1;
  }
}
`
	unsynced := unit + `proc caller() {
  var v: int = 0;
  u(v);
}
`
	synced := unit + `proc caller() {
  var v: int = 0;
  sync {
    u(v);
  }
}
`
	units := NewUnits("test")
	st := checkIncr(t, units, unsynced)
	if st.UnitMisses != 1 || st.UnitHits != 0 {
		t.Fatalf("cold run: %+v", st)
	}
	// The unit's text did not change, but its call sites did: a hit here
	// would serve warnings computed under the wrong synced-scope bit.
	st = checkIncr(t, units, synced)
	if st.UnitMisses != 1 || st.UnitHits != 0 {
		t.Fatalf("synced-bit flip must invalidate the unit: %+v", st)
	}
	// Same content again: both variants are now memoized independently.
	if st = checkIncr(t, units, unsynced); st.UnitHits != 1 {
		t.Fatalf("unsynced variant should be memoized: %+v", st)
	}
	if st = checkIncr(t, units, synced); st.UnitHits != 1 {
		t.Fatalf("synced variant should be memoized: %+v", st)
	}
}

// TestIncrementalConfigInvalidation pins the module-level rule: editing
// a config const invalidates every unit (config decl lines surface in
// warnings, and config bindings affect resolution), while re-analyzing
// unchanged content hits.
func TestIncrementalConfigInvalidation(t *testing.T) {
	prog := func(init string) string {
		return "config const n = " + init + ";\n" +
			`proc p() {
  var v: int = 0;
  begin with (ref v) {
    v = n;
  }
}
`
	}
	units := NewUnits("test")
	if st := checkIncr(t, units, prog("3")); st.UnitMisses != 1 {
		t.Fatalf("cold run: %+v", st)
	}
	if st := checkIncr(t, units, prog("4")); st.UnitMisses != 1 || st.UnitHits != 0 {
		t.Fatalf("config edit must invalidate the unit: %+v", st)
	}
	if st := checkIncr(t, units, prog("4")); st.UnitHits != 1 {
		t.Fatalf("unchanged content should hit: %+v", st)
	}
}

// TestIncrementalCalleeBodyReuse pins the reuse direction: a unit that
// calls a top-level procedure treats the call as opaque (§III partial
// inter-procedural analysis), so editing the callee's BODY must not
// invalidate the caller — only the call-site accounting and binding
// kind matter.
func TestIncrementalCalleeBodyReuse(t *testing.T) {
	prog := func(calleeBody string) string {
		return `proc caller() {
  var v: int = 0;
  begin with (ref v) {
    v = 1;
  }
  helper(v);
}
proc helper(y: int) {
` + calleeBody + `}
`
	}
	units := NewUnits("test")
	if st := checkIncr(t, units, prog("  writeln(y);\n")); st.UnitMisses != 1 {
		t.Fatalf("cold run: %+v", st)
	}
	// helper has no begin, so caller is the only unit; its fingerprint
	// must survive the callee body edit.
	if st := checkIncr(t, units, prog("  writeln(y + 1);\n")); st.UnitHits != 1 || st.UnitMisses != 0 {
		t.Fatalf("callee body edit must not invalidate the caller: %+v", st)
	}
}

// TestIncrementalDegradedNeverStored: a budget-degraded unit must be
// recomputed every time — serving it later could mask the complete
// result a fresh run would produce.
func TestIncrementalDegradedNeverStored(t *testing.T) {
	src := `proc big() {
  var x: int = 0;
  var a$: sync bool;
  var b$: sync bool;
  var c$: sync bool;
  begin with (ref x) { x = 2; a$ = true; }
  begin with (ref x) { x = 3; b$ = true; }
  begin with (ref x) { x = 4; c$ = true; }
  a$;
  b$;
  c$;
}
`
	opts := DefaultOptions()
	opts.PPS.MaxStates = 2
	units := NewUnits("test")
	for i := 0; i < 2; i++ {
		res, stats := AnalyzeSourceIncremental("t.chpl", src, opts, units)
		if res.Degraded() == "" {
			t.Fatalf("run %d: expected a budget-degraded result", i)
		}
		if stats.UnitHits != 0 {
			t.Fatalf("run %d: degraded units must never be served from cache: %+v", i, stats)
		}
	}
}

// TestIncrementalMemoHitOrder: one unit emits a lowering note (the
// subsumed loop), two warnings and a deadlock note. Replayed from the
// memo after the unit shifted down and behind another unit's task, its
// notes and warnings match a fresh run in order, and no run renders a
// warning as a diagnostic.
func TestIncrementalMemoHitOrder(t *testing.T) {
	unit := `proc combo() {
  var x: int = 1;
  var y: int = 2;
  var done$: sync bool;
  var go$: sync bool;
  begin with (ref x) {
    while (x < 3) {
      x = x + 1;
      done$ = true;
    }
    writeln(x);
  }
  done$;
  begin with (ref y) {
    go$;
    y = 3;
  }
}
`
	shifted := `proc first() {
  var z: int = 0;
  begin with (ref z) {
    z = 1;
  }
}

` + unit
	transcript := func(res *Result) (notes, warnings []string) {
		if n := res.Diags.Count(source.Warning); n != 0 {
			t.Errorf("Result.Diags holds %d Warning-severity entries, want none:\n%s", n, res.Diags)
		}
		for _, d := range res.Diags.All() {
			notes = append(notes, d.String())
		}
		for _, w := range res.Warnings() {
			warnings = append(warnings, w.String())
		}
		return notes, warnings
	}
	opts := DefaultOptions()
	units := NewUnits("test")
	if _, st := AnalyzeSourceIncremental("t.chpl", unit, opts, units); st.UnitMisses != 1 {
		t.Fatalf("cold run: %+v", st)
	}
	hit, st := AnalyzeSourceIncremental("t.chpl", shifted, opts, units)
	if st.UnitHits != 1 || st.UnitMisses != 1 {
		t.Fatalf("shifted run: %+v, want combo served from the memo and first analyzed", st)
	}
	gotNotes, gotWarnings := transcript(hit)
	wantNotes, wantWarnings := transcript(AnalyzeSource("t.chpl", shifted, opts))

	// The fresh run must exercise every kind of entry, in this order.
	var kinds []string
	for _, n := range wantNotes {
		switch {
		case strings.Contains(n, "subsumes the loop"):
			kinds = append(kinds, "loop")
		case strings.Contains(n, "potential deadlock"):
			kinds = append(kinds, "deadlock")
		}
	}
	if fmt.Sprint(kinds) != "[loop deadlock]" || len(wantWarnings) < 2 {
		t.Fatalf("fresh run notes %q and %d warnings; want the loop note, then the deadlock note, and at least 2 warnings",
			wantNotes, len(wantWarnings))
	}
	if g, w := strings.Join(gotNotes, "\n"), strings.Join(wantNotes, "\n"); g != w {
		t.Errorf("memo-hit notes differ from the fresh run\n got:\n%s\nwant:\n%s", g, w)
	}
	if g, w := strings.Join(gotWarnings, "\n"), strings.Join(wantWarnings, "\n"); g != w {
		t.Errorf("memo-hit warnings differ from the fresh run\n got:\n%s\nwant:\n%s", g, w)
	}
}

// TestTraceAttrsDoNotPinSource: the "proc" span's name and the
// "unit-hit" span's proc are sliced out of the file's source by the
// lexer. A retained trace must hold copies, not the whole source.
func TestTraceAttrsDoNotPinSource(t *testing.T) {
	src := "proc worker(ref x: int) {\n  begin with (ref x) {\n    x = 1;\n  }\n}\n"
	tr := obs.NewTrace(obs.DeriveTraceID("pin"))
	opts := DefaultOptions()
	opts.Ctx = obs.ContextWithTrace(context.Background(), tr)
	units := NewUnits("test")
	AnalyzeSourceIncremental("t.chpl", src, opts, units)
	if _, st := AnalyzeSourceIncremental("t.chpl", src, opts, units); st.UnitHits != 1 {
		t.Fatalf("second run: %+v, want one unit hit", st)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	seen := map[string]bool{}
	for _, sp := range tr.Spans() {
		for k, v := range sp.Attrs {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(v))); p >= lo && p < lo+uintptr(len(src)) {
				t.Errorf("%s span's %s attribute %q points into the source", sp.Name, k, v)
			}
			seen[sp.Name+"."+k+"="+v] = true
		}
	}
	if !seen["proc.name=worker"] || !seen["unit-hit.proc=worker"] {
		t.Errorf("trace lacks the proc and unit-hit attributes: %v", seen)
	}
}

// TestMemoEntriesDoNotPinSource: the lexer slices identifier names out
// of the source, so a memoized unit that kept such a string would keep
// the whole text of a past snapshot alive in the LRU. No string
// reachable from a stored UnitResult may point into a source, after
// the miss that stores it or the hit that replays it.
func TestMemoEntriesDoNotPinSource(t *testing.T) {
	files := []ModuleFile{
		{Name: "main.chpl", Src: "proc main() {\n  var x: int = 0;\n  var a$: sync bool;\n  begin with (ref x) {\n" +
			"    var b$: sync bool;\n    begin with (ref x) {\n      writeln(x);\n      b$ = true;\n    }\n" +
			"    a$ = true;\n    b$;\n  }\n  a$;\n" +
			"  proc spin(n: int) {\n    spin(n);\n  }\n  spin(1);\n  var total: int = 0;\n  escape(total);\n}\n"},
		{Name: "lib.chpl", Src: "proc escape(ref v: int) {\n  begin with (ref v) {\n    v = v + 1;\n  }\n}\n"},
	}
	units := NewUnits("test")
	var stored []*UnitResult
	units.c = cache.New(cache.Codec[*UnitResult]{
		Clone: func(u *UnitResult) *UnitResult {
			c := u.Clone()
			stored = append(stored, c)
			return c
		},
	}, 0, "")
	for run, want := range []IncrStats{{UnitMisses: 2}, {UnitHits: 2}} {
		res, st := AnalyzeModule(files, DefaultOptions(), units)
		if st != want {
			t.Fatalf("run %d: %+v, want %+v", run, st, want)
		}
		if len(res.Files[0].Procs) == 0 || len(res.Files[0].Procs[0].Warnings) < 2 {
			t.Fatalf("run %d: main has no warnings to check", run)
		}
	}
	var srcs []string
	for _, f := range files {
		srcs = append(srcs, f.Src)
	}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.String:
			p := uintptr(unsafe.Pointer(unsafe.StringData(v.String())))
			for _, src := range srcs {
				if lo := uintptr(unsafe.Pointer(unsafe.StringData(src))); p >= lo && p < lo+uintptr(len(src)) {
					t.Errorf("%s = %q points into the source", path, v.String())
				}
			}
		case reflect.Pointer:
			if !v.IsNil() {
				walk(path, v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(path+"[key]", it.Key())
				walk(path+"[value]", it.Value())
			}
		}
	}
	// Put clones the captured unit and Get clones the stored one: two
	// stores and two hits.
	if len(stored) != 4 {
		t.Fatalf("%d clones recorded, want 4", len(stored))
	}
	kinds := map[string]bool{}
	for _, u := range stored {
		walk("UnitResult", reflect.ValueOf(u))
		for _, w := range u.Warnings {
			if w.TaskLabel != "" {
				kinds["label"] = true
			}
			if w.Prov != nil && w.Prov.Node != "" {
				kinds["node"] = true
			}
			if w.Prov != nil && len(w.Prov.Chain) > 0 {
				kinds["chain"] = true
			}
		}
		if len(u.Notes) > 0 {
			kinds["note"] = true
		}
	}
	// The case must exercise every string field it claims to check.
	if len(kinds) != 4 {
		t.Errorf("stored units lack a literal task label, a provenance node or chain, or a note: %v", kinds)
	}
}

// TestModuleStoresHoldOneSnapshot: the parse store and the summary memo
// keep only the last module snapshot, one entry per file and per
// procedure, however many edits went before; a file dropped from the
// snapshot leaves both.
func TestModuleStoresHoldOneSnapshot(t *testing.T) {
	mopts := progen.ModuleOptions{Files: 4, Procs: 3}
	var files []ModuleFile
	for _, f := range progen.GenerateModule(3, mopts) {
		files = append(files, ModuleFile{Name: f.Name, Src: f.Src})
	}
	files = append(files, ModuleFile{Name: "extra.chpl",
		Src: "proc extra() {\n  var y: int = 0;\n  begin with (ref y) {\n    y = 1;\n  }\n}\n"})
	units := NewUnits("test")
	check := func(label string) {
		t.Helper()
		prev := units.lastParsed()
		res, _ := AnalyzeModule(files, DefaultOptions(), units)
		if res.FrontendFailed {
			t.Fatalf("%s: frontend failed", label)
		}
		parsed := units.lastParsed()
		if len(parsed) != len(files) {
			t.Errorf("%s: parse store holds %d files, want %d", label, len(parsed), len(files))
		}
		for _, f := range files {
			pf, ok := parsed[f.Name]
			if !ok || pf.src.Content != f.Src {
				t.Errorf("%s: parse store lacks the current %s", label, f.Name)
			}
			if old, ok := prev[f.Name]; ok && old.src.Content == f.Src && old.src != pf.src {
				t.Errorf("%s: unchanged %s was parsed again", label, f.Name)
			}
		}
		// progen modules are acyclic, so every procedure has an entry.
		if n, want := units.summaries.Len(), len(res.Graph.DeclFile); n != want {
			t.Errorf("%s: summary memo holds %d entries, want %d", label, n, want)
		}
	}
	check("cold")
	for i := 0; i < 50; i++ {
		j := i % mopts.Files
		alt := progen.GenerateModule(int64(100+i), mopts)[j].Src
		if alt == files[j].Src {
			t.Fatalf("edit %d leaves %s unchanged", i, files[j].Name)
		}
		files[j].Src = alt
		check(fmt.Sprintf("edit %d", i))
	}
	files = files[:mopts.Files]
	check("extra.chpl dropped")
}
