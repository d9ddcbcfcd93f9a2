package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
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
