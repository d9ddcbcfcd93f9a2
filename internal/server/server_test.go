package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"uafcheck"
	"uafcheck/internal/cache"
	"uafcheck/internal/obs"
	"uafcheck/internal/wire"
)

// corpusDir is the shared acceptance corpus.
const corpusDir = "../../testdata/suite"

func loadCorpus(t *testing.T) []uafcheck.FileInput {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.chpl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus under %s: %v", corpusDir, err)
	}
	sort.Strings(paths)
	files := make([]uafcheck.FileInput, len(paths))
	for i, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = uafcheck.FileInput{Name: filepath.Base(p), Src: string(src)}
	}
	return files
}

// fanoutSrc generates a synthetic proc whose PPS state space grows with
// tasks — the knob for "slow enough to observe in flight". The proc
// name participates in the content address, so distinct names defeat
// both the dedup layer and the report cache.
func fanoutSrc(name string, tasks int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "config const flag = true;\nproc %s() {\n  var x: int = 1;\n", name)
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&sb, "  var d%d$: sync bool;\n", i)
	}
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&sb, "  begin with (ref x) {\n    x += %d;\n    d%d$ = true;\n  }\n", i+1, i)
	}
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&sb, "  d%d$;\n", i)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// newTestServer wires a Server into an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// post sends body as JSON and returns the response plus its full body.
func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out
}

// TestAnalyzeByteIdentity is the acceptance bar of the daemon: for
// every corpus file, the /v1/analyze response body must be
// byte-identical to the canonical encoding the library/CLI produce for
// the same input and options — and a second (cache-served) request
// must return the same bytes again.
func TestAnalyzeByteIdentity(t *testing.T) {
	files := loadCorpus(t)
	_, ts := newTestServer(t, Config{Cache: uafcheck.NewCache(uafcheck.CacheConfig{})})

	for _, f := range files {
		rep, err := uafcheck.AnalyzeContext(context.Background(), f.Name, f.Src,
			uafcheck.WithPrune(true),
			uafcheck.WithParallelism(1),
			uafcheck.WithDeadline(30*time.Second))
		want, encErr := wire.NewResult(f.Name, rep, err, false).Encode()
		if encErr != nil {
			t.Fatalf("%s: encode: %v", f.Name, encErr)
		}

		resp, body := post(t, ts, "/v1/analyze", AnalyzeRequest{Name: f.Name, Src: f.Src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", f.Name, resp.StatusCode, body)
		}
		got := bytes.TrimSuffix(body, []byte("\n"))
		if !bytes.Equal(got, want) {
			t.Errorf("%s: server bytes differ from canonical encoding\n server: %s\nlibrary: %s",
				f.Name, got, want)
		}

		resp2, body2 := post(t, ts, "/v1/analyze", AnalyzeRequest{Name: f.Name, Src: f.Src})
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("%s: repeat status %d", f.Name, resp2.StatusCode)
		}
		if !bytes.Equal(body, body2) {
			t.Errorf("%s: cache-served bytes differ from live bytes", f.Name)
		}
		if resp2.Header.Get("X-Uafserve-Cache") != "hit" {
			t.Errorf("%s: repeat request not served from cache (header %q)",
				f.Name, resp2.Header.Get("X-Uafserve-Cache"))
		}
	}
}

// TestOverloadReturns429 fills one analysis slot and a one-deep queue
// with slow distinct requests; the rest must be rejected immediately
// with 429 + Retry-After, and nobody's connection may be dropped.
func TestOverloadReturns429(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 1})

	const n = 6
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := AnalyzeRequest{
				Name:    fmt.Sprintf("slow%d.chpl", i),
				Src:     fanoutSrc(fmt.Sprintf("slow%d", i), 12),
				Options: RequestOptions{DeadlineMS: 200},
			}
			resp, _ := post(t, ts, "/v1/analyze", req)
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	var ok, rejected int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
			if secs, err := strconv.Atoi(retryAfter[i]); err != nil || secs < 1 {
				t.Errorf("429 without a usable Retry-After (got %q)", retryAfter[i])
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, c)
		}
	}
	// With 1 slot + 1 queue entry and 6 concurrent slow requests, at
	// least one must run and at least one must be turned away.
	if ok == 0 || rejected == 0 {
		t.Fatalf("want both successes and rejections, got ok=%d rejected=%d", ok, rejected)
	}
	if got := srv.MetricsSnapshot().Counter(obs.CtrServerRejects); got != int64(rejected) {
		t.Errorf("server.rejects = %d, want %d", got, rejected)
	}
}

// TestDedupSingleflight fires identical concurrent requests: exactly
// one analysis runs, everyone gets byte-identical 200 bodies, and the
// dedup counter records the followers.
func TestDedupSingleflight(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 2, QueueDepth: 16})

	const n = 8
	req := AnalyzeRequest{Name: "dedup.chpl", Src: fanoutSrc("dedup", 12)}
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts, "/v1/analyze", req)
			codes[i], bodies[i] = resp.StatusCode, body
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d: body differs from request 0", i)
		}
	}
	m := srv.MetricsSnapshot()
	if m.Counter(obs.CtrServerDedupHits) == 0 {
		t.Error("server.dedup_hits = 0, want > 0 for identical concurrent requests")
	}
	if got := m.Counter(obs.CtrServerAnalyses); got >= n {
		t.Errorf("server.analyses = %d, want < %d (singleflight should collapse the burst)", got, n)
	}
}

// TestGracefulShutdown drains the server while requests are in flight:
// every admitted request must still receive its complete 200 response,
// and post-drain requests must get 503.
func TestGracefulShutdown(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 8, QueueDepth: 8,
		Cache: uafcheck.NewCache(uafcheck.CacheConfig{Dir: t.TempDir(), AsyncDiskWrites: 64})})

	const n = 4
	codes := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := AnalyzeRequest{
				Name: fmt.Sprintf("drain%d.chpl", i),
				Src:  fanoutSrc(fmt.Sprintf("drain%d", i), 11),
			}
			resp, body := post(t, ts, "/v1/analyze", req)
			codes[i], bodies[i] = resp.StatusCode, body
		}(i)
	}

	// Drain only once every request holds a slot: "in-flight" means
	// admitted, and the guarantee under test is that admitted work is
	// always delivered.
	for i := 0; ; i++ {
		if inflight, _ := srv.gate.load(); inflight == n {
			break
		}
		if i > 5000 {
			t.Fatal("requests never all admitted")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Errorf("in-flight request %d lost to shutdown: status %d, body %s", i, codes[i], bodies[i])
			continue
		}
		var res wire.Result
		if err := json.Unmarshal(bodies[i], &res); err != nil {
			t.Errorf("in-flight request %d: truncated body: %v", i, err)
		}
	}

	resp, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Name: "late.chpl", Src: "proc p() { }\n"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status %d, want 503", resp.StatusCode)
	}
	hresp, hbody := get(t, ts, "/healthz")
	if hresp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(hbody, []byte("draining")) {
		t.Errorf("draining /healthz: status %d body %s, want 503 draining", hresp.StatusCode, hbody)
	}
}

// TestBatchNDJSON streams a corpus subset through /v1/analyze-batch and
// checks each NDJSON line is byte-identical to the corresponding
// single-file response.
func TestBatchNDJSON(t *testing.T) {
	files := loadCorpus(t)
	if len(files) > 6 {
		files = files[:6]
	}
	srv, ts := newTestServer(t, Config{Cache: uafcheck.NewCache(uafcheck.CacheConfig{})})

	breq := BatchRequest{Files: make([]BatchFile, len(files))}
	for i, f := range files {
		breq.Files[i] = BatchFile{Name: f.Name, Src: f.Src}
	}
	resp, body := post(t, ts, "/v1/analyze-batch", breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("batch Content-Type = %q", ct)
	}

	lines := map[string][]byte{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var res wire.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines[res.Name] = append([]byte(nil), sc.Bytes()...)
	}
	if len(lines) != len(files) {
		t.Fatalf("got %d NDJSON lines, want %d", len(lines), len(files))
	}

	for _, f := range files {
		line, ok := lines[f.Name]
		if !ok {
			t.Errorf("no batch line for %s", f.Name)
			continue
		}
		_, single := post(t, ts, "/v1/analyze", AnalyzeRequest{Name: f.Name, Src: f.Src})
		if !bytes.Equal(line, bytes.TrimSuffix(single, []byte("\n"))) {
			t.Errorf("%s: batch line differs from single-file response\n batch: %s\nsingle: %s",
				f.Name, line, single)
		}
	}
	if got := srv.MetricsSnapshot().Counter(obs.CtrServerBatchFiles); got != int64(len(files)) {
		t.Errorf("server.batch_files = %d, want %d", got, len(files))
	}
}

// TestMetricsAggregateStaysBounded sends batch requests with fresh
// content and checks that the per-request telemetry aggregate behind
// /metrics totals them: no trace spans, the same histogram keys after
// the 4th and the 12th request, and a pps-explore timing count that
// grows.
func TestMetricsAggregateStaysBounded(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	batch := func(i int) {
		req := BatchRequest{Files: []BatchFile{
			{Name: fmt.Sprintf("a%d.chpl", i), Src: fanoutSrc(fmt.Sprintf("a%d", i), 3)},
			{Name: fmt.Sprintf("b%d.chpl", i), Src: fanoutSrc(fmt.Sprintf("b%d", i), 2)},
		}}
		if resp, body := post(t, ts, "/v1/analyze-batch", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	explore := obs.HistKey(obs.HistPhaseNS, "phase", obs.PhaseExplore)
	check := func(m obs.Metrics) {
		t.Helper()
		if m.Hist(explore).Empty() {
			t.Errorf("aggregate has no %s histogram: %v", explore, m.HistNames())
		}
		if m.Trace != nil {
			t.Errorf("aggregate keeps %d trace spans", len(m.Trace))
		}
	}
	for i := 0; i < 4; i++ {
		batch(i)
	}
	early := srv.MetricsSnapshot()
	check(early)
	for i := 4; i < 12; i++ {
		batch(i)
	}
	late := srv.MetricsSnapshot()
	check(late)
	if e, l := fmt.Sprint(early.HistNames()), fmt.Sprint(late.HistNames()); e != l {
		t.Errorf("aggregate histogram keys grew from\n%s\nto\n%s", e, l)
	}
	if e, l := early.Hist(explore).Count, late.Hist(explore).Count; l <= e {
		t.Errorf("%s count did not grow: %d then %d", explore, e, l)
	}
	if got := late.Counter(obs.CtrServerBatchFiles); got != 24 {
		t.Errorf("server.batch_files = %d, want 24", got)
	}
}

// TestDeadlineDegrades maps a tiny request deadline onto the governor:
// the response is still 200, but the report is marked degraded with the
// deadline stop reason.
func TestDeadlineDegrades(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := AnalyzeRequest{
		Name:    "big.chpl",
		Src:     fanoutSrc("big", 14),
		Options: RequestOptions{DeadlineMS: 20},
	}
	resp, body := post(t, ts, "/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res wire.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != "timed-out" {
		t.Errorf("status = %q, want timed-out", res.Status)
	}
	if res.Report == nil || res.Report.Degraded == nil ||
		res.Report.Degraded.Reason != uafcheck.DegradeDeadline {
		t.Errorf("report not marked deadline-degraded: %s", body)
	}
}

// TestRequestValidation covers the failure envelope: malformed JSON,
// missing fields, frontend errors and oversized bodies.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024})

	resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	resp2, _ := post(t, ts, "/v1/analyze", AnalyzeRequest{Name: "empty.chpl"})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("missing src: status %d, want 400", resp2.StatusCode)
	}

	resp3, body3 := post(t, ts, "/v1/analyze",
		AnalyzeRequest{Name: "bad.chpl", Src: "proc { nonsense"})
	if resp3.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("frontend error: status %d, want 422", resp3.StatusCode)
	}
	var res wire.Result
	if err := json.Unmarshal(body3, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != "error" || res.Error == "" {
		t.Errorf("frontend error body = %s, want status error with message", body3)
	}

	big := AnalyzeRequest{Name: "big.chpl", Src: strings.Repeat("x", 4096)}
	resp4, _ := post(t, ts, "/v1/analyze", big)
	if resp4.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp4.StatusCode)
	}

	resp5, err := ts.Client().Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze: status %d, want 405", resp5.StatusCode)
	}
}

// TestAdminEndpoints smoke-tests healthz, livez and the Prometheus
// rendering of the server counters.
func TestAdminEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	post(t, ts, "/v1/analyze", AnalyzeRequest{Name: "p.chpl", Src: "proc p() { }\n"})

	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"status":"ok"`)) {
		t.Errorf("/healthz: status %d body %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts, "/livez")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("alive")) {
		t.Errorf("/livez: status %d body %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"uafcheck_server_requests 1", // the analyze above; admin GETs don't count
		"uafcheck_server_analyses 1",
		"uafcheck_server_inflight",
		"uafcheck_server_queue_depth",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestGate unit-tests the admission primitive directly: slot reuse,
// queue bounds, drain semantics.
func TestGate(t *testing.T) {
	g := newGate(1, 1)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// One waiter fits the queue...
	errc := make(chan error, 2)
	go func() { errc <- g.acquire(context.Background()) }()
	waitQueued(t, g, 1)
	// ...the next overflows it immediately.
	if err := g.acquire(context.Background()); err != errOverload {
		t.Fatalf("queue overflow: %v, want errOverload", err)
	}

	g.release()
	if err := <-errc; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}

	// Drain kicks out a fresh waiter and fails fast afterwards.
	go func() { errc <- g.acquire(context.Background()) }()
	waitQueued(t, g, 1)
	g.drain()
	if err := <-errc; err != errDraining {
		t.Fatalf("drained waiter: %v, want errDraining", err)
	}
	if err := g.acquire(context.Background()); err != errDraining {
		t.Fatalf("post-drain acquire: %v, want errDraining", err)
	}
}

func waitQueued(t *testing.T, g *gate, want int) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if _, q := g.load(); q == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached %d", want)
}

// TestRouteKeyBytes pins the option-set rendering of the cache and
// route keys: the bytes decide worker placement, so a refactor must
// leave them as they are.
func TestRouteKeyBytes(t *testing.T) {
	off := false
	o := RequestOptions{Prune: &off, MaxStates: 64, DeadlineMS: 250, Trace: true,
		ModelAtomics: true, CountAtomics: false, Retries: 2, Metrics: true}
	const set = "prune=false max_states=64 deadline_ms=250 trace=true ma=true ca=false retries=2 metrics=true"
	if got, want := RouteKey("analyze", "a.chpl", "src", o),
		cache.KeyOf("uafserve/route/analyze", uafcheck.Version, "a.chpl", "src", set); got != want {
		t.Errorf("RouteKey = %s, want %s", got, want)
	}
	if got, want := ModuleRouteKey("app", o),
		cache.KeyOf("uafserve/route/module", uafcheck.Version, "app", set); got != want {
		t.Errorf("ModuleRouteKey = %s, want %s", got, want)
	}
	s := New(Config{DefaultDeadline: time.Second, MaxDeadline: time.Minute})
	if got, want := s.requestKey("analyze", "a.chpl", "src", o), cache.KeyOf("uafserve/analyze", uafcheck.Version, "a.chpl", "src",
		"prune=false max_states=64 deadline=250ms trace=true ma=true ca=false retries=2 metrics=true").String(); got != want {
		t.Errorf("requestKey = %s, want %s", got, want)
	}
}
