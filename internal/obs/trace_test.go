package obs

import (
	"bytes"
	"context"
	"maps"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestDeriveTraceIDDeterministic(t *testing.T) {
	a := DeriveTraceID("file.chpl", "proc p() {}")
	b := DeriveTraceID("file.chpl", "proc p() {}")
	if a != b {
		t.Errorf("same parts gave different IDs: %s vs %s", a, b)
	}
	if a.IsZero() {
		t.Error("derived ID is zero")
	}
	// Length-prefixing means part boundaries matter: ("ab","c") and
	// ("a","bc") must not collide.
	if DeriveTraceID("ab", "c") == DeriveTraceID("a", "bc") {
		t.Error("length prefixing failed: shifted parts collide")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid := DeriveTraceID("test")
	var sid SpanID
	copy(sid[:], []byte{1, 2, 3, 4, 5, 6, 7, 8})
	h := FormatTraceparent(tid, sid)
	if len(h) != 55 {
		t.Fatalf("traceparent length = %d, want 55: %q", len(h), h)
	}
	gtid, gsid, ok := ParseTraceparent(h)
	if !ok || gtid != tid || gsid != sid {
		t.Fatalf("round trip failed: %v %v %v from %q", gtid, gsid, ok, h)
	}
	for _, bad := range []string{
		"",
		"xx-00000000000000000000000000000001-0000000000000001-01",
		"00-00000000000000000000000000000000-0000000000000001-01", // zero trace id
		"00-00000000000000000000000000000001-0000000000000000-01", // zero span id
		"00-0001-0001-01",
		"01-00000000000000000000000000000001-0000000000000001-01", // unknown version
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := NewTrace(DeriveTraceID("structure"))
	ctx := ContextWithTrace(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")
	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grand")
	grand.SetAttr("k", "v")
	grand.SetAttrInt("n", 42)
	grand.End()
	grand.End() // double End is a no-op
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]TraceSpan{}
	for _, sp := range spans {
		if sp.TraceID != tr.ID().String() {
			t.Errorf("span %s has trace id %s", sp.Name, sp.TraceID)
		}
		byName[sp.Name] = sp
	}
	if byName["root"].Parent != "" {
		t.Errorf("root has parent %q", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].SpanID {
		t.Errorf("child parent = %q, want root %q", byName["child"].Parent, byName["root"].SpanID)
	}
	if byName["grand"].Parent != byName["child"].SpanID {
		t.Errorf("grand parent = %q, want child %q", byName["grand"].Parent, byName["child"].SpanID)
	}
	if byName["grand"].Attrs["k"] != "v" || byName["grand"].Attrs["n"] != "42" {
		t.Errorf("grand attrs = %v", byName["grand"].Attrs)
	}
}

// TestDistributedTraceSpanIDs: two processes' shares of one trace hand
// out span IDs that do not collide and still sort in creation order,
// while a library trace keeps its plain sequence 1, 2, 3, ...
func TestDistributedTraceSpanIDs(t *testing.T) {
	id := DeriveTraceID("distributed")
	ids := func(tr *Trace) []string {
		ctx := ContextWithTrace(context.Background(), tr)
		var out []string
		for i := 0; i < 3; i++ {
			_, sp := StartSpan(ctx, "s")
			out = append(out, sp.SpanID().String())
			sp.End()
		}
		return out
	}
	lib := ids(NewTrace(id))
	if strings.Join(lib, ",") != "0000000000000001,0000000000000002,0000000000000003" {
		t.Errorf("library trace span IDs = %v, want the plain sequence", lib)
	}
	a, b := ids(NewDistributedTrace(id)), ids(NewDistributedTrace(id))
	seen := map[string]bool{}
	for _, s := range append(a, b...) {
		if seen[s] {
			t.Fatalf("span ID %s handed out twice across %v and %v", s, a, b)
		}
		seen[s] = true
	}
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			t.Errorf("distributed span IDs %v do not sort in creation order", a)
		}
	}
}

func TestStartSpanWithoutTraceIsNoop(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "orphan")
	if sp != nil {
		// nil-safe: all methods must work on the returned value even if
		// non-nil is returned for a no-trace context.
		sp.SetAttr("a", "b")
		sp.End()
	}
	if TraceFrom(ctx) != nil {
		t.Error("no-trace StartSpan invented a trace")
	}
	var nilSpan *ActiveSpan
	nilSpan.SetAttr("a", "b") // must not panic
	nilSpan.SetAttrInt("n", 1)
	nilSpan.End()
	if !nilSpan.SpanID().IsZero() {
		t.Error("nil span has a span ID")
	}
}

func TestDetachKeepsTrace(t *testing.T) {
	tr := NewTrace(DeriveTraceID("detach"))
	ctx := ContextWithTrace(context.Background(), tr)
	ctx, sp := StartSpan(ctx, "parent")
	defer sp.End()

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	detached := Detach(cancelled)
	if detached.Err() != nil {
		t.Fatal("detached context inherited cancellation")
	}
	if TraceFrom(detached) != tr {
		t.Fatal("detached context lost the trace")
	}
	if sid, ok := CurrentSpanID(detached); !ok || sid != sp.SpanID() {
		t.Fatal("detached context lost the parent span")
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace(DeriveTraceID("cap"))
	ctx := ContextWithTrace(context.Background(), tr)
	for i := 0; i < DefaultTraceSpans+10; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	if got := len(tr.Spans()); got != DefaultTraceSpans {
		t.Errorf("retained %d spans, want cap %d", got, DefaultTraceSpans)
	}
	if tr.Dropped() != 10 {
		t.Errorf("dropped = %d, want 10", tr.Dropped())
	}
}

func TestJSONLSinkEmitsTraceSpans(t *testing.T) {
	r := New()
	tr := NewTrace(DeriveTraceID("jsonl"))
	ctx := ContextWithTrace(context.Background(), tr)
	_, sp := StartSpan(ctx, "work")
	sp.End()
	r.SetTrace(tr.Spans())

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"trace_span"`) {
		t.Fatalf("JSONL output missing trace_span line:\n%s", out)
	}
	if !strings.Contains(out, tr.ID().String()) {
		t.Fatalf("JSONL output missing trace id:\n%s", out)
	}
}

func TestPromSinkOutputLints(t *testing.T) {
	r := New()
	r.Add(CtrServerRequests, 3)
	r.Max(GaugeServerInflight, 1)
	r.Observe(HistKey(HistRequestNS, "route", "/v1/analyze"), 1500)
	r.Observe(HistKey(HistRequestNS, "route", "/v1/analyze"), 90000)
	r.Observe(HistKey(HistRequestNS, "route", "/v1/delta"), 7)
	r.Observe(HistWaveSize, 4)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePromText(buf.Bytes()); err != nil {
		t.Fatalf("prometheus lint failed: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"_bucket", `le="+Inf"`, "_sum", "_count", `route="/v1/analyze"`} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestValidatePromTextRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"bad name":       "1bad_name 3\n",
		"non-cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n",
		"missing +Inf":   "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n",
		"count mismatch": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 4\n",
		"bad value":      "m abc\n",
	}
	for name, text := range cases {
		if err := ValidatePromText([]byte(text)); err == nil {
			t.Errorf("%s: lint accepted invalid input:\n%s", name, text)
		}
	}
}

// TestSpanRendering: the compact store renders what the spans recorded
// — hex IDs, parent links (a remote parent included), names, string and
// integer attributes — and the attributes of spans past the cap are not
// kept.
func TestSpanRendering(t *testing.T) {
	tr := NewTrace(DeriveTraceID("render"))
	remote := SpanID{0, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7}
	ctx := ContextWithParentSpan(ContextWithTrace(context.Background(), tr), remote)
	ctx, root := StartSpan(ctx, "request")
	root.SetAttr("route", "/v1/analyze")
	wctx, wave := StartSpan(ctx, "pps-wave")
	wave.SetAttrInt("wave", 3)
	wave.SetAttrInt("size", -7)
	wave.SetAttr("interrupted", "")
	wave.SetAttrInt("fourth", 4) // a fourth key is not kept
	wave.SetAttrInt("wave", 4)   // a known key is overwritten in place
	_, leaf := StartSpan(wctx, "parse")
	leaf.End()
	wave.End()
	root.SetAttrInt("status", 200)
	root.End()

	want := map[string]TraceSpan{
		"request":  {SpanID: "0000000000000001", Parent: remote.String(), Attrs: map[string]string{"route": "/v1/analyze", "status": "200"}},
		"pps-wave": {SpanID: "0000000000000002", Parent: "0000000000000001", Attrs: map[string]string{"wave": "4", "size": "-7", "interrupted": ""}},
		"parse":    {SpanID: "0000000000000003", Parent: "0000000000000002"},
	}
	spans := tr.Spans()
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d", len(spans), len(want))
	}
	for i, sp := range spans {
		w := want[sp.Name]
		if sp.TraceID != tr.ID().String() || sp.SpanID != w.SpanID || sp.Parent != w.Parent {
			t.Errorf("%s: ids (%s, %s, %s), want (%s, %s, %s)", sp.Name,
				sp.TraceID, sp.SpanID, sp.Parent, tr.ID(), w.SpanID, w.Parent)
		}
		if !maps.Equal(sp.Attrs, w.Attrs) || (sp.Attrs == nil) != (w.Attrs == nil) {
			t.Errorf("%s: attrs %v, want %v", sp.Name, sp.Attrs, w.Attrs)
		}
		if sp.Dur < 0 || (i > 0 && sp.Start < spans[i-1].Start) {
			t.Errorf("%s: start %v dur %v out of order", sp.Name, sp.Start, sp.Dur)
		}
	}

	// Equal start offsets order by span ID.
	set := SpanSet{recs: []spanRec{
		{id: SpanID{7: 2}, name: "b", start: 5},
		{id: SpanID{7: 1}, name: "a", start: 5},
		{id: SpanID{7: 3}, name: "c", start: 1},
	}}
	var order []string
	for _, sp := range set.Spans() {
		order = append(order, sp.Name)
	}
	if strings.Join(order, ",") != "c,a,b" {
		t.Errorf("render order %v, want c,a,b", order)
	}

	// Past the cap neither the spans nor their attributes are kept, and
	// the spans before it keep theirs.
	capped := NewTrace(DeriveTraceID("cap-attrs"))
	cctx := ContextWithTrace(context.Background(), capped)
	for i := 0; i < DefaultTraceSpans+5; i++ {
		_, sp := StartSpan(cctx, "s")
		for k := 0; k < i%4; k++ {
			sp.SetAttrInt(string(rune('a'+k)), int64(i))
		}
		sp.End()
	}
	if capped.Dropped() != 5 {
		t.Errorf("dropped = %d, want 5", capped.Dropped())
	}
	for i, sp := range capped.Spans() {
		if len(sp.Attrs) != i%4 {
			t.Fatalf("span %d: attrs %v", i, sp.Attrs)
		}
		for _, v := range sp.Attrs {
			if v != strconv.Itoa(i) {
				t.Fatalf("span %d: attrs %v", i, sp.Attrs)
			}
		}
	}
}

// TestSpanImmutableOnceRecorded: SetAttr after End leaves the recorded
// span alone, and editing a rendered span's Attrs leaves the trace
// alone.
func TestSpanImmutableOnceRecorded(t *testing.T) {
	tr := NewTrace(DeriveTraceID("immutable"))
	_, sp := StartSpan(ContextWithTrace(context.Background(), tr), "s")
	sp.SetAttr("k", "v")
	sp.End()
	sp.SetAttr("k", "changed")
	sp.SetAttrInt("late", 1)
	first := tr.Spans()
	if !maps.Equal(first[0].Attrs, map[string]string{"k": "v"}) {
		t.Fatalf("SetAttr after End changed the span: %v", first[0].Attrs)
	}
	first[0].Attrs["k"] = "edited"
	first[0].Attrs["new"] = "x"
	if again := tr.Spans(); !maps.Equal(again[0].Attrs, map[string]string{"k": "v"}) {
		t.Errorf("editing a rendered span changed the trace: %v", again[0].Attrs)
	}
}

// TestSpanAttrCopiesValue: a string attribute sliced out of a larger
// string (a procedure name out of its file's source) is copied, so a
// retained trace does not keep the whole source alive.
func TestSpanAttrCopiesValue(t *testing.T) {
	src := "proc worker() {\n  var x: int = 0;\n}\n"
	name := src[5:11]
	tr := NewTrace(DeriveTraceID("copy"))
	_, sp := StartSpan(ContextWithTrace(context.Background(), tr), "proc")
	sp.SetAttr("name", name)
	sp.End()
	got := tr.Records().Spans()[0].Attrs["name"]
	if got != "worker" {
		t.Fatalf("name attr = %q", got)
	}
	if pointsInto(got, src) {
		t.Error("recorded attribute points into the source string")
	}
}

// pointsInto reports whether s's bytes lie inside within's.
func pointsInto(s, within string) bool {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(within)))
	return p >= lo && p < lo+uintptr(len(within))
}

// TestSpanFootprint caps what tracing costs: the heap a retained
// SpanSet holds per span on a request-shaped mix of spans, and the
// allocations per started span.
func TestSpanFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("heap accounting in -short mode")
	}
	const (
		maxBytesPerSpan = 128
		// The span itself and its context. The record slices grow by
		// doubling, and AllocsPerRun rounds their share away.
		maxAllocsPerSpan = 2
	)
	// One request: a route and status on the root, then per file a
	// file span, a cache lookup, the pipeline phases, one procedure
	// with two PPS waves, and the result line's encoding.
	src := strings.Repeat("proc worker_procedure() { }\n", 32)
	request := func(i int) SpanSet {
		tr := NewDistributedTrace(DeriveTraceID("footprint", strconv.Itoa(i)))
		ctx, root := StartSpan(ContextWithTrace(context.Background(), tr), "request")
		root.SetAttr("route", "/v1/analyze-batch")
		for f := 0; f < 32; f++ {
			fctx, file := StartSpan(ctx, "file")
			file.SetAttr("name", "corpus_task_"+strconv.Itoa(f)+".chpl")
			_, look := StartSpan(fctx, "cache-lookup")
			look.SetAttr("outcome", "miss")
			look.End()
			for _, phase := range []string{PhaseParse, PhaseResolve} {
				_, sp := StartSpan(fctx, phase)
				sp.End()
			}
			pctx, proc := StartSpan(fctx, "proc")
			proc.SetAttr("name", src[28*f+5:28*f+21])
			for _, phase := range []string{PhaseLower, PhaseCCFG, PhasePrune} {
				_, sp := StartSpan(pctx, phase)
				sp.End()
			}
			ectx, explore := StartSpan(pctx, PhaseExplore)
			for w := 0; w < 2; w++ {
				_, wave := StartSpan(ectx, "pps-wave")
				wave.SetAttrInt("wave", int64(w))
				wave.SetAttrInt("size", 3)
				wave.End()
			}
			explore.SetAttrInt("waves", 2)
			explore.SetAttrInt("states", 9)
			explore.End()
			proc.End()
			file.End()
			_, enc := StartSpan(ctx, PhaseWireEncode)
			enc.End()
		}
		root.SetAttrInt("status", 200)
		root.End()
		return tr.Records()
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := make([]SpanSet, 64)
	spans := 0
	for i := range kept {
		kept[i] = request(i)
		spans += kept[i].Len()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSpan := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(spans)
	runtime.KeepAlive(kept)
	t.Logf("%.1f bytes per retained span (%d spans)", perSpan, spans)
	if perSpan > maxBytesPerSpan {
		t.Errorf("%.1f bytes per retained span, ceiling %d", perSpan, maxBytesPerSpan)
	}

	ctx := ContextWithTrace(context.Background(), NewTrace(DeriveTraceID("allocs")))
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpan(ctx, PhaseParse)
		sp.SetAttrInt("n", 1)
		sp.End()
	})
	t.Logf("%.0f allocations per started span", allocs)
	if allocs > maxAllocsPerSpan {
		t.Errorf("%.0f allocations per started span, ceiling %d", allocs, maxAllocsPerSpan)
	}
}

// TestSpanRecordingWhileRendering: spans end on several goroutines while
// another renders the trace, as batch workers do while /debug/requests
// reads a request. Run under -race.
func TestSpanRecordingWhileRendering(t *testing.T) {
	tr := NewTrace(DeriveTraceID("concurrent"))
	ctx, root := StartSpan(ContextWithTrace(context.Background(), tr), "request")
	const workers, perWorker = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, sp := StartSpan(ctx, "file")
				sp.SetAttrInt("i", int64(i))
				sp.SetAttr("name", "f.chpl")
				sp.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	check := func(spans []TraceSpan) {
		for _, sp := range spans {
			if len(sp.Attrs) != 2 || sp.Attrs["name"] != "f.chpl" {
				t.Fatalf("span %s rendered with attrs %v", sp.SpanID, sp.Attrs)
			}
		}
	}
	for rendering := true; rendering; {
		select {
		case <-done:
			rendering = false
		default:
			check(tr.Spans())
		}
	}
	root.End()
	spans := tr.Spans()
	if len(spans) != workers*perWorker+1 {
		t.Fatalf("got %d spans, want %d", len(spans), workers*perWorker+1)
	}
	check(spans[1:])
}
