package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"uafcheck"
	"uafcheck/internal/obs"
)

// safeBuf is a mutex-guarded log sink: slog handlers may be driven from
// request goroutines.
type safeBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *safeBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

const buggySrc = "proc p() {\n  var x: int = 0;\n  begin with (ref x) {\n    x = 1;\n  }\n}\n"

// TestRequestSpanTree is the tentpole acceptance test: one POST
// /v1/analyze yields a complete span tree — request root, analysis
// file span, pipeline phases, PPS waves — retrievable from the flight
// recorder by the trace ID the response echoed.
func TestRequestSpanTree(t *testing.T) {
	_, ts := newTestServer(t, Config{Cache: uafcheck.NewCache(uafcheck.CacheConfig{})})
	resp, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Name: "a.chpl", Src: buggySrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	tp := resp.Header.Get("traceparent")
	tid, _, ok := obs.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", tp)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		r, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf strings.Builder
		if _, err := io.Copy(&buf, r.Body); err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, []byte(buf.String())
	}

	code, body := get("/debug/requests?trace=" + tid.String())
	if code != http.StatusOK {
		t.Fatalf("/debug/requests?trace=: status %d: %s", code, body)
	}
	var d RequestDigest
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("digest decode: %v\n%s", err, body)
	}
	if d.TraceID != tid.String() || d.Route != "/v1/analyze" || d.Status != http.StatusOK {
		t.Errorf("digest = %+v", d)
	}
	if d.Outcome != "ok" {
		t.Errorf("outcome = %q, want ok", d.Outcome)
	}
	if d.SpanCount == 0 || len(d.Spans) != d.SpanCount {
		t.Fatalf("span tree not inlined: count=%d len=%d", d.SpanCount, len(d.Spans))
	}
	names := map[string]int{}
	for _, sp := range d.Spans {
		if sp.TraceID != tid.String() {
			t.Errorf("span %s in foreign trace %s", sp.Name, sp.TraceID)
		}
		names[sp.Name]++
	}
	for _, want := range []string{"request", "file", obs.PhaseParse, obs.PhaseResolve,
		obs.PhaseExplore, "pps-wave", "cache-lookup"} {
		if names[want] == 0 {
			t.Errorf("span tree missing %q: %v", want, names)
		}
	}
	if len(d.Phases) == 0 {
		t.Errorf("digest has no phase breakdown")
	}

	// The listing elides spans but still carries the digest.
	code, body = get("/debug/requests")
	if code != http.StatusOK {
		t.Fatalf("/debug/requests: status %d", code)
	}
	var listing struct {
		Requests []RequestDigest `json:"requests"`
		Capacity int             `json:"capacity"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("listing decode: %v\n%s", err, body)
	}
	if listing.Capacity != flightRecorderSize {
		t.Errorf("capacity = %d, want %d", listing.Capacity, flightRecorderSize)
	}
	var found bool
	for _, d := range listing.Requests {
		if d.TraceID == tid.String() {
			found = true
			if len(d.Spans) != 0 {
				t.Errorf("listing inlined %d spans", len(d.Spans))
			}
		}
	}
	if !found {
		t.Errorf("trace %s not in listing", tid)
	}

	// Unknown trace IDs 404.
	if code, _ := get("/debug/requests?trace=ffffffffffffffffffffffffffffffff"); code != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", code)
	}
}

// TestTraceparentIngest: a caller-supplied W3C traceparent is adopted —
// the response echoes the same trace ID with the server's root span.
func TestTraceparentIngest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const remote = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

	body := `{"name":"a.chpl","src":"proc p() { }"}`
	req, err := http.NewRequest("POST", ts.URL+"/v1/analyze", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", remote)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	echo := resp.Header.Get("traceparent")
	tid, sid, ok := obs.ParseTraceparent(echo)
	if !ok {
		t.Fatalf("echoed traceparent %q does not parse", echo)
	}
	if tid.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id not adopted: %s", tid)
	}
	if sid.String() == "00f067aa0ba902b7" {
		t.Error("server must mint its own span id, not echo the caller's")
	}

	// A garbage traceparent is ignored, not an error: the server mints a
	// fresh trace.
	req2, _ := http.NewRequest("POST", ts.URL+"/v1/analyze", strings.NewReader(body))
	req2.Header.Set("traceparent", "garbage")
	resp2, err := ts.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("garbage traceparent: status %d", resp2.StatusCode)
	}
	if _, _, ok := obs.ParseTraceparent(resp2.Header.Get("traceparent")); !ok {
		t.Errorf("no fresh traceparent minted: %q", resp2.Header.Get("traceparent"))
	}
}

// TestStatusz: the operational summary carries per-route latency
// quantiles after traffic.
func TestStatusz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		post(t, ts, "/v1/analyze", AnalyzeRequest{Name: "a.chpl", Src: buggySrc})
	}
	resp, err := ts.Client().Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Version string                 `json:"version"`
		Routes  map[string]routeStatus `json:"routes"`
		Flight  struct {
			Recorded int `json:"recorded"`
			Capacity int `json:"capacity"`
		} `json:"flight_recorder"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Version == "" {
		t.Error("statusz missing version")
	}
	rs, ok := st.Routes["/v1/analyze"]
	if !ok {
		t.Fatalf("statusz has no /v1/analyze row: %+v", st.Routes)
	}
	if rs.Count != 3 {
		t.Errorf("route count = %d, want 3", rs.Count)
	}
	if rs.P50MS <= 0 || rs.P50MS > rs.P99MS {
		t.Errorf("quantiles not sane: p50=%v p99=%v", rs.P50MS, rs.P99MS)
	}
	if st.Flight.Recorded != 3 {
		t.Errorf("flight recorder recorded = %d, want 3", st.Flight.Recorded)
	}
}

// TestPprofGate: the profiling surface only exists when opted in.
func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := off.Client().Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = on.Client().Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", resp.StatusCode)
	}
}

// TestMetricsPromFormat: /metrics output passes the text-format linter
// and carries the per-route request latency histogram, and the phase
// timings only as the uafcheck_phase_ns histogram: one series per
// phase a single-file, a batch and a module request run.
func TestMetricsPromFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/analyze", AnalyzeRequest{Name: "a.chpl", Src: buggySrc})
	post(t, ts, "/analyze", AnalyzeRequest{Name: "a.chpl", Src: buggySrc})
	post(t, ts, "/v1/analyze-batch", BatchRequest{Files: []BatchFile{{Name: "b.chpl", Src: buggySrc}}})
	post(t, ts, "/v1/analyze-batch", BatchRequest{Mode: "module", Files: []BatchFile{
		{Name: "leaf.chpl", Src: "proc leaf(ref v: int) {\n  begin with (ref v) {\n    v = v + 1;\n  }\n}\n"},
		{Name: "main.chpl", Src: "proc main() {\n  var x: int = 0;\n  leaf(x);\n}\n"},
	}})

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if err := obs.ValidatePromText([]byte(text)); err != nil {
		t.Fatalf("/metrics fails prometheus lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		"# TYPE uafcheck_server_request_ns histogram",
		`uafcheck_server_request_ns_bucket{route="/v1/analyze",le="+Inf"}`,
		`uafcheck_server_request_ns_count{route="/analyze"}`,
		"# TYPE uafcheck_pps_wave_size histogram",
		"# TYPE uafcheck_phase_ns histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, phase := range []string{obs.PhaseParse, obs.PhaseResolve, obs.PhaseSummaries, obs.PhaseLower,
		obs.PhaseCCFG, obs.PhasePrune, obs.PhaseExplore, obs.PhaseBatch} {
		if want := fmt.Sprintf("uafcheck_phase_ns_count{phase=%q}", phase); !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if strings.Contains(text, "phase_seconds") {
		t.Errorf("/metrics still exports phase_seconds:\n%s", text)
	}
}

// TestDeprecatedAliasLogsOnce: the first unversioned hit logs one
// warning; later hits only count.
func TestDeprecatedAliasLogsOnce(t *testing.T) {
	var logBuf safeBuf
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	srv, ts := newTestServer(t, Config{Logger: logger})

	req := AnalyzeRequest{Name: "a.chpl", Src: "proc p() { }"}
	for i := 0; i < 3; i++ {
		if resp, _ := post(t, ts, "/analyze", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("alias status %d", resp.StatusCode)
		}
	}
	if got := srv.MetricsSnapshot().Counter(obs.CtrServerDeprecated); got != 3 {
		t.Errorf("%s = %d, want 3", obs.CtrServerDeprecated, got)
	}
	logs := logBuf.String()
	if n := strings.Count(logs, "deprecated unversioned route"); n != 1 {
		t.Errorf("deprecation warning logged %d times, want once:\n%s", n, logs)
	}
	if !strings.Contains(logs, "/v1/analyze") {
		t.Errorf("warning does not name the successor:\n%s", logs)
	}
}

// TestFlightRecorderRing: the ring keeps only the newest N digests.
func TestFlightRecorderRing(t *testing.T) {
	fr := newFlightRecorder(3)
	for i := 0; i < 5; i++ {
		fr.add(RequestDigest{TraceID: string(rune('a' + i))})
	}
	got := fr.snapshot()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, want := range []string{"e", "d", "c"} {
		if got[i].TraceID != want {
			t.Errorf("snapshot[%d] = %q, want %q", i, got[i].TraceID, want)
		}
	}
	if _, ok := fr.byTrace("a"); ok {
		t.Error("evicted digest still retrievable")
	}
	if d, ok := fr.byTrace("d"); !ok || d.TraceID != "d" {
		t.Error("byTrace failed for retained digest")
	}
}

// TestDigestPhasesSumsNanoseconds: phase totals are summed before they
// are converted to milliseconds, so 32 parse spans of 0.4 ms report
// 12 ms, not 32 truncated zeroes.
func TestDigestPhasesSumsNanoseconds(t *testing.T) {
	got := digestPhases(func(fn func(name string, dur time.Duration)) {
		for i := 0; i < 32; i++ {
			fn(obs.PhaseParse, 400*time.Microsecond)
		}
		fn("request", time.Second) // not a phase
	})
	if len(got) != 1 || got[obs.PhaseParse] != 12 {
		t.Errorf("phases_ms = %v, want parse: 12", got)
	}
}

// fetchDigest reads one request's digest, spans inlined, from the
// flight recorder by the trace ID its response echoed.
func fetchDigest(t *testing.T, ts *httptest.Server, resp *http.Response) RequestDigest {
	t.Helper()
	tid, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q does not parse", resp.Header.Get("traceparent"))
	}
	r, err := ts.Client().Get(ts.URL + "/debug/requests?trace=" + tid.String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var d RequestDigest
	if err := json.NewDecoder(r.Body).Decode(&d); err != nil {
		t.Fatalf("digest decode: %v", err)
	}
	return d
}

// TestFlightRecorderServingPhases: a worker's analyze and batch digests
// carry the admission wait and one wire-encode span per result line, in
// the span tree and in phases_ms, and both reach the phase_ns
// histogram.
func TestFlightRecorderServingPhases(t *testing.T) {
	srv, ts := newTestServer(t, Config{Mode: "worker"})
	batch := BatchRequest{Files: []BatchFile{{Name: "a.chpl", Src: buggySrc}, {Name: "b.chpl", Src: "proc p() { }"}}}
	for _, c := range []struct {
		path  string
		body  any
		lines int
	}{
		{"/v1/analyze", AnalyzeRequest{Name: "a.chpl", Src: buggySrc}, 1},
		{"/v1/analyze-batch", batch, 2},
	} {
		resp, _ := post(t, ts, c.path, c.body)
		d := fetchDigest(t, ts, resp)
		count := map[string]int{}
		for _, sp := range d.Spans {
			count[sp.Name]++
		}
		if count[obs.PhaseAdmission] != 1 || count[obs.PhaseWireEncode] != c.lines {
			t.Errorf("%s: %d admission and %d wire-encode spans, want 1 and %d",
				c.path, count[obs.PhaseAdmission], count[obs.PhaseWireEncode], c.lines)
		}
		for _, phase := range []string{obs.PhaseAdmission, obs.PhaseWireEncode} {
			if _, ok := d.Phases[phase]; !ok {
				t.Errorf("%s: phases_ms %v has no %s", c.path, d.Phases, phase)
			}
		}
	}
	m := srv.MetricsSnapshot()
	for phase, want := range map[string]int64{obs.PhaseAdmission: 2, obs.PhaseWireEncode: 3} {
		if got := m.Hist(obs.HistKey(obs.HistPhaseNS, "phase", phase)).Count; got != want {
			t.Errorf("phase_ns|phase=%s count = %d, want %d", phase, got, want)
		}
	}
}

// TestFlightRecorderRendersUnderLoad: /debug/requests renders recorded
// span trees while batch requests run and record theirs. Run under
// -race.
func TestFlightRecorderRendersUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{BatchWorkers: 4})
	body, err := json.Marshal(BatchRequest{Files: []BatchFile{
		{Name: "a.chpl", Src: buggySrc}, {Name: "b.chpl", Src: buggySrc},
		{Name: "c.chpl", Src: "proc p() { }"}, {Name: "d.chpl", Src: buggySrc},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := post(t, ts, "/v1/analyze-batch", json.RawMessage(body))
	first := fetchDigest(t, ts, resp).TraceID

	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				r, err := ts.Client().Post(ts.URL+"/v1/analyze-batch", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, r.Body) //nolint:errcheck
				r.Body.Close()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		for _, path := range []string{"/debug/requests", "/debug/requests?trace=" + first} {
			r, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, r.Body) //nolint:errcheck
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", path, r.StatusCode)
			}
		}
	}
}

// TestDigestCountsDroppedSpans: a batch whose span tree outgrows
// obs.DefaultTraceSpans keeps the cap's worth of spans, and its digest
// counts every span it lost, so kept plus dropped is the whole tree.
func TestDigestCountsDroppedSpans(t *testing.T) {
	_, ts := newTestServer(t, Config{Mode: "worker"})
	spans := func(n int) RequestDigest {
		files := make([]BatchFile, n)
		for i := range files {
			files[i] = BatchFile{Name: fmt.Sprintf("f%d.chpl", i), Src: buggySrc}
		}
		resp, _ := post(t, ts, "/v1/analyze-batch", BatchRequest{Files: files})
		return fetchDigest(t, ts, resp)
	}
	// The tree grows by the same number of spans per identical file.
	one, ten := spans(1), spans(10)
	if one.DroppedSpans != 0 || ten.DroppedSpans != 0 {
		t.Fatalf("small batches dropped spans: %d, %d", one.DroppedSpans, ten.DroppedSpans)
	}
	perFile := (ten.SpanCount - one.SpanCount) / 9
	n := obs.DefaultTraceSpans/perFile + 40
	want := one.SpanCount + (n-1)*perFile

	d := spans(n)
	if d.SpanCount != obs.DefaultTraceSpans || d.DroppedSpans == 0 {
		t.Fatalf("%d-file batch: span_count %d, dropped_spans %d; want %d kept and some dropped",
			n, d.SpanCount, d.DroppedSpans, obs.DefaultTraceSpans)
	}
	if got := d.SpanCount + int(d.DroppedSpans); got != want {
		t.Errorf("kept %d + dropped %d = %d spans, want the whole tree of %d",
			d.SpanCount, d.DroppedSpans, got, want)
	}
}
