package server

// The chaos suite drives uafserve through a retrying test client
// (chaosPost) under deterministic fault injection (internal/fault) and
// checks the robustness contract from docs/RECOVERY.md:
//
//  1. the server never returns a 5xx (or 429) without Retry-After
//     guidance — verified at the transport layer, so retried attempts
//     count too;
//  2. a corrupt cache entry is never served: every 200 body is either
//     byte-identical to the fault-free canonical encoding or a flagged
//     degraded result (Report.Degraded set);
//  3. flagged results obey the degradation ladder — budget/deadline
//     degradations carry a conservative superset of the fault-free
//     warnings, panic crashes are flagged "crashed" (a crashed proc's
//     warnings are lost, so supersets cannot be promised there).
//
// Every scenario runs on a fixed seed matrix: same seeds, same fault
// schedule, same outcome. The global injector means these tests must
// not use t.Parallel.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"uafcheck"
	"uafcheck/internal/fault"
	"uafcheck/internal/obs"
	"uafcheck/internal/wire"
)

// recordingTransport observes every individual HTTP attempt — including
// the ones chaosPost retries — so invariants about response headers
// can be asserted over the full wire history.
type recordingTransport struct {
	next http.RoundTripper

	mu       sync.Mutex
	attempts []attemptRecord
}

type attemptRecord struct {
	path       string
	status     int
	retryAfter string
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rt.next.RoundTrip(req)
	if err == nil {
		rt.mu.Lock()
		rt.attempts = append(rt.attempts, attemptRecord{
			path:       req.URL.Path,
			status:     resp.StatusCode,
			retryAfter: resp.Header.Get("Retry-After"),
		})
		rt.mu.Unlock()
	}
	return resp, err
}

// checkRetryAfterInvariant fails the test for every observed 5xx or 429
// that arrived without Retry-After guidance.
func (rt *recordingTransport) checkRetryAfterInvariant(t *testing.T) {
	t.Helper()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, a := range rt.attempts {
		if (a.status >= 500 || a.status == http.StatusTooManyRequests) && a.retryAfter == "" {
			t.Errorf("%s answered %d without Retry-After", a.path, a.status)
		}
	}
}

func (rt *recordingTransport) count(status int) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, a := range rt.attempts {
		if a.status == status {
			n++
		}
	}
	return n
}

// The chaos client's retry schedule: a fixed attempt count, and a
// backoff that doubles from chaosBackoff and is capped at
// chaosMaxBackoff. The cap also bounds an honored Retry-After, so the
// server's 1s guidance does not slow the suite down.
const (
	chaosAttempts   = 8
	chaosBackoff    = 2 * time.Millisecond
	chaosMaxBackoff = 25 * time.Millisecond
)

// chaosPost posts a JSON body to url over rt and retries a transport
// error, a 429 or a 5xx on the chaos schedule, waiting for the
// server's Retry-After when it sends one. It returns the first other
// response, or the last failure once the attempts run out.
func chaosPost(rt *recordingTransport, url string, body []byte) (*http.Response, error) {
	hc := &http.Client{Transport: rt, Timeout: time.Minute}
	var err error
	for attempt := 0; attempt < chaosAttempts; attempt++ {
		wait := min(chaosBackoff<<attempt, chaosMaxBackoff)
		var resp *http.Response
		resp, err = hc.Post(url, "application/json", bytes.NewReader(body))
		if err == nil {
			if resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
				return resp, nil
			}
			if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
				wait = min(time.Duration(secs)*time.Second, chaosMaxBackoff)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			err = fmt.Errorf("%s: %s", url, resp.Status)
		}
		if attempt+1 < chaosAttempts {
			time.Sleep(wait)
		}
	}
	return nil, fmt.Errorf("after %d attempts: %w", chaosAttempts, err)
}

// chaosCorpus is a deterministic slice of the acceptance corpus — big
// enough to give the probability streams room, small enough to keep the
// seed matrix fast under -race.
func chaosCorpus(t *testing.T) []uafcheck.FileInput {
	files := loadCorpus(t)
	if len(files) > 6 {
		files = files[:6]
	}
	return files
}

// chaosBaseline computes the fault-free canonical encoding per file —
// the byte-identity reference. Must be called before any injector is
// armed.
func chaosBaseline(t *testing.T, files []uafcheck.FileInput) map[string][]byte {
	t.Helper()
	if fault.Active() != nil {
		t.Fatal("baseline must be computed fault-free")
	}
	base := make(map[string][]byte, len(files))
	for _, f := range files {
		rep, err := uafcheck.AnalyzeContext(context.Background(), f.Name, f.Src,
			uafcheck.WithPrune(true),
			uafcheck.WithParallelism(1),
			uafcheck.WithDeadline(30*time.Second))
		want, encErr := wire.NewResult(f.Name, rep, err, false).Encode()
		if encErr != nil {
			t.Fatalf("%s: encode baseline: %v", f.Name, encErr)
		}
		base[f.Name] = want
	}
	return base
}

// warningSet renders a report's warnings as a sorted multiset key list.
func warningSet(rep *uafcheck.Report) []string {
	if rep == nil {
		return nil
	}
	out := make([]string, len(rep.Warnings))
	for i, w := range rep.Warnings {
		w.Conservative = false // superset compare ignores the flag
		w.Prov = nil
		out[i] = w.String()
	}
	sort.Strings(out)
	return out
}

// isSuperset reports whether sup contains every element of sub
// (multiset semantics).
func isSuperset(sup, sub []string) bool {
	have := make(map[string]int, len(sup))
	for _, s := range sup {
		have[s]++
	}
	for _, s := range sub {
		have[s]--
		if have[s] < 0 {
			return false
		}
	}
	return true
}

// verifyChaosBody enforces invariant 2 and 3 on one 200 response body.
func verifyChaosBody(t *testing.T, name string, body, want []byte) {
	t.Helper()
	got := bytes.TrimSuffix(body, []byte("\n"))
	if bytes.Equal(got, want) {
		return // byte-identical to the fault-free run
	}
	var res, base wire.Result
	if err := json.Unmarshal(got, &res); err != nil {
		t.Errorf("%s: served undecodable body (corrupt entry?): %v\n%s", name, err, got)
		return
	}
	if err := json.Unmarshal(want, &base); err != nil {
		t.Fatalf("%s: baseline undecodable: %v", name, err)
	}
	if res.Name != name {
		t.Errorf("%s: served result for %q (corrupt or cross-wired entry)", name, res.Name)
		return
	}
	switch res.Status {
	case "crashed":
		// A panic-crashed proc's warnings are lost, not inflated — the
		// contract is an honest flag, not a superset.
		if res.Report == nil || res.Report.Degraded == nil {
			t.Errorf("%s: status crashed without Report.Degraded", name)
		}
	case "degraded", "timed-out":
		if res.Report == nil || res.Report.Degraded == nil {
			t.Errorf("%s: status %s without Report.Degraded", name, res.Status)
			return
		}
		if !isSuperset(warningSet(res.Report), warningSet(base.Report)) {
			t.Errorf("%s: degraded result is not a conservative superset of the fault-free warnings", name)
		}
	default:
		t.Errorf("%s: unflagged divergence from the fault-free bytes (status %q)\n served: %s\nfault-free: %s",
			name, res.Status, got, want)
	}
}

// TestChaosMatrix runs the fixed (scenario x seed) grid: each cell arms
// one injector, drives two servers sharing a disk cache directory
// through the retrying client (the second server starts cold in memory,
// so pass 2 reads — and checksum-verifies — what pass 1 persisted), and
// checks the full contract.
func TestChaosMatrix(t *testing.T) {
	files := chaosCorpus(t)
	base := chaosBaseline(t, files)

	scenarios := []struct {
		name  string
		rules []fault.Rule
	}{
		{"disk-write-err", []fault.Rule{
			{Point: fault.CacheWrite, Mode: fault.ModeError, Prob: 0.5},
		}},
		{"torn-writes", []fault.Rule{
			{Point: fault.CacheTorn, Mode: fault.ModeTorn, Prob: 0.7},
		}},
		{"disk-read-err", []fault.Rule{
			{Point: fault.CacheRead, Mode: fault.ModeError, Prob: 0.5},
		}},
		{"analysis-panics", []fault.Rule{
			{Point: fault.AnalysisPanic, Mode: fault.ModePanic, Prob: 0.4},
		}},
		{"mixed", []fault.Rule{
			{Point: fault.CacheWrite, Mode: fault.ModeError, Prob: 0.3},
			{Point: fault.CacheTorn, Mode: fault.ModeTorn, Prob: 0.3},
			{Point: fault.CacheRead, Mode: fault.ModeError, Prob: 0.3},
			{Point: fault.AnalysisPanic, Mode: fault.ModePanic, Prob: 0.15},
		}},
	}
	seeds := []int64{1, 7}

	for _, sc := range scenarios {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				dir := t.TempDir()
				in := fault.New(seed, sc.rules...)
				restore := fault.Set(in)
				defer restore()

				rt := &recordingTransport{next: http.DefaultTransport}

				// Two passes, two server generations over one cache dir.
				for pass := 0; pass < 2; pass++ {
					cache := uafcheck.NewCache(uafcheck.CacheConfig{Dir: dir})
					_, ts := newTestServer(t, Config{Cache: cache})
					for _, f := range files {
						body, err := json.Marshal(AnalyzeRequest{Name: f.Name, Src: f.Src})
						if err != nil {
							t.Fatal(err)
						}
						resp, err := chaosPost(rt, ts.URL+"/v1/analyze", body)
						if err != nil {
							t.Fatalf("pass %d: %s: %v", pass, f.Name, err)
						}
						out := readAll(t, resp)
						if resp.StatusCode != http.StatusOK {
							t.Fatalf("pass %d: %s: status %d, body %s", pass, f.Name, resp.StatusCode, out)
						}
						verifyChaosBody(t, f.Name, out, base[f.Name])
					}
				}

				rt.checkRetryAfterInvariant(t)

				// A scenario whose faults never fired proves nothing —
				// deterministic streams make this a stable assertion.
				fired := int64(0)
				for _, r := range sc.rules {
					fired += in.Fired(r.Point)
				}
				if fired == 0 {
					t.Errorf("scenario vacuous: no fault fired (hits per point: %v)",
						func() map[string]int64 {
							m := make(map[string]int64)
							for _, r := range sc.rules {
								m[r.Point] = in.Hits(r.Point)
							}
							return m
						}())
				}
			})
		}
	}
}

// TestChaosAdmissionStorm floods a 1-slot, 0-queue server with slow
// analyses from concurrent retrying clients: every rejection must carry
// Retry-After, and every request must eventually land through retries.
func TestChaosAdmissionStorm(t *testing.T) {
	restore := fault.Set(fault.New(1, fault.Rule{
		Point: fault.AnalysisDelay, Mode: fault.ModeDelay, Prob: 1, Delay: 25 * time.Millisecond,
	}))
	defer restore()

	_, ts := newTestServer(t, Config{MaxInflight: 1, QueueDepth: -1})
	rt := &recordingTransport{next: http.DefaultTransport}

	const callers = 6
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct proc names defeat the dedup layer and the report
			// cache, so every caller really competes for the one slot.
			src := fanoutSrc(fmt.Sprintf("storm%d", i), 2)
			body, err := json.Marshal(AnalyzeRequest{Name: fmt.Sprintf("storm%d.chpl", i), Src: src})
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := chaosPost(rt, ts.URL+"/v1/analyze", body)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	rt.checkRetryAfterInvariant(t)
	if rt.count(http.StatusTooManyRequests) == 0 {
		t.Error("storm never produced a 429 — admission control untested")
	}
}

// TestChaosKillAndRestart simulates a crash between server generations:
// generation 1 populates the disk tier, the "crash" corrupts two
// entries and leaves a stale temp file behind, and generation 2 must
// quarantine the damage on startup and answer every request
// byte-identically via cold recompute.
func TestChaosKillAndRestart(t *testing.T) {
	files := chaosCorpus(t)
	base := chaosBaseline(t, files)
	dir := t.TempDir()

	// Generation 1: populate the disk tier (synchronous writes land
	// before the handler returns).
	cache1 := uafcheck.NewCache(uafcheck.CacheConfig{Dir: dir})
	_, ts1 := newTestServer(t, Config{Cache: cache1})
	for _, f := range files {
		resp, body := post(t, ts1, "/v1/analyze", AnalyzeRequest{Name: f.Name, Src: f.Src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", f.Name, resp.StatusCode, body)
		}
	}

	// The crash: flip a byte in two persisted entries, strand a temp
	// file from an interrupted write.
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) < 2 {
		t.Fatalf("disk tier not populated: %d entries (%v)", len(entries), err)
	}
	sort.Strings(entries)
	for _, p := range entries[:2] {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x20
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "put-1234567"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Generation 2: the startup recovery scan (what uafserve runs for
	// -cache-dir) quarantines the corruption and sweeps the temp file.
	cache2 := uafcheck.NewCache(uafcheck.CacheConfig{Dir: dir})
	rs := cache2.Recover()
	if rs.Quarantined != 2 || rs.TempFiles != 1 {
		t.Fatalf("recovery = %+v, want 2 quarantined / 1 temp file", rs)
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if len(quarantined) != 2 {
		t.Fatalf("quarantine dir holds %d files, want 2", len(quarantined))
	}

	_, ts2 := newTestServer(t, Config{Cache: cache2})
	for _, f := range files {
		resp, body := post(t, ts2, "/v1/analyze", AnalyzeRequest{Name: f.Name, Src: f.Src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restart: %s: status %d", f.Name, resp.StatusCode)
		}
		if got := bytes.TrimSuffix(body, []byte("\n")); !bytes.Equal(got, base[f.Name]) {
			t.Errorf("restart: %s: bytes differ from fault-free baseline (corrupt entry served?)", f.Name)
		}
	}
	if st := cache2.Stats(); st.Quarantined < 2 {
		t.Errorf("cache stats quarantined = %d, want >= 2", st.Quarantined)
	}
}

// TestHealthzComponents checks the component-health fold and the rows
// a worker reports: ok/off rows answer 200 "ok", an impaired row keeps
// serving at 200 "degraded", and draining or unready answers 503 — and
// /healthz and /statusz both list the admission and disk_cache rows.
func TestHealthzComponents(t *testing.T) {
	for _, tc := range []struct {
		states []string
		status string
		code   int
	}{
		{[]string{"ok", "off"}, "ok", http.StatusOK},
		{[]string{"ok", "degraded"}, "degraded", http.StatusOK},
		{[]string{"disabled", "off"}, "degraded", http.StatusOK},
		{[]string{"degraded", "draining"}, "draining", http.StatusServiceUnavailable},
		{[]string{"ok", "unready"}, "unready", http.StatusServiceUnavailable},
	} {
		comps := make(map[string]ComponentStatus)
		for i, st := range tc.states {
			comps[fmt.Sprint("c", i)] = ComponentStatus{State: st}
		}
		if status, code := healthState(comps); status != tc.status || code != tc.code {
			t.Errorf("healthState(%v) = %q %d, want %q %d", tc.states, status, code, tc.status, tc.code)
		}
	}

	srv, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/statusz"} {
		resp, body := get(t, ts, path)
		var m struct {
			Status     string                     `json:"status"`
			Components map[string]ComponentStatus `json:"components"`
		}
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("%s body: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK || m.Status != "ok" {
			t.Errorf("%s on a healthy server: status %d %q, want 200 ok", path, resp.StatusCode, m.Status)
		}
		for _, want := range []string{"admission", "disk_cache"} {
			if _, ok := m.Components[want]; !ok {
				t.Errorf("%s components missing %q: %s", path, want, body)
			}
		}
	}

	// Unready answers carry retry guidance.
	srv.gate.drain()
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"draining"`) {
		t.Errorf("draining server: status %d, body %s — want 503 draining", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("unready healthz answered without Retry-After")
	}
}

// TestChaosRepairRefusal drives /v1/repair under analysis panics: the
// repair-verify loop sees crashed (degraded) evidence on every
// attempt, so the endpoint must answer the typed refusal — 503 with
// code "repair_degraded" and Retry-After — and must never serve a
// patch line derived from degraded analysis. Dropping the injector
// afterwards is the control: the same request then repairs clean, so
// the refusal above was the faults' doing, not a broken endpoint.
func TestChaosRepairRefusal(t *testing.T) {
	src, err := os.ReadFile("../../testdata/figure1.chpl")
	if err != nil {
		t.Fatal(err)
	}
	req := AnalyzeRequest{Name: "figure1.chpl", Src: string(src)}

	in := fault.New(3, fault.Rule{
		Point: fault.AnalysisPanic, Mode: fault.ModePanic, Prob: 1,
	})
	restore := fault.Set(in)
	_, ts := newTestServer(t, Config{})

	for i := 0; i < 3; i++ {
		resp, body := post(t, ts, "/v1/repair", req)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("attempt %d: status %d, want 503; body %s", i, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("attempt %d: refusal without Retry-After", i)
		}
		var eb errorBody
		if err := json.Unmarshal(bytes.TrimSpace(body), &eb); err != nil {
			t.Fatalf("attempt %d: refusal body not a single JSON error: %v\n%s", i, err, body)
		}
		if eb.Code != CodeRepairDegraded {
			t.Errorf("attempt %d: code = %q, want %q", i, eb.Code, CodeRepairDegraded)
		}
		if strings.Contains(string(body), "\"kind\":\"patch\"") || strings.Contains(string(body), "+++ b/") {
			t.Fatalf("attempt %d: degraded repair served patch material: %s", i, body)
		}
	}
	if in.Fired(fault.AnalysisPanic) == 0 {
		t.Fatal("scenario vacuous: no analysis panic fired")
	}
	restore()

	// Control: fault-free, the same request must repair clean with
	// verified patches — the server survived the chaos undamaged.
	resp, body := post(t, ts, "/v1/repair", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("control: status %d, body %s", resp.StatusCode, body)
	}
	recs := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	var sawPatch bool
	var sum *wire.RepairSummary
	for _, rec := range recs {
		var l wire.RepairLine
		if err := json.Unmarshal([]byte(rec), &l); err != nil {
			t.Fatalf("control: bad NDJSON record: %v\n%s", err, rec)
		}
		switch l.Kind {
		case wire.RepairKindPatch:
			sawPatch = true
			if !l.Patch.Verdict.Verified {
				t.Fatalf("control: unverified patch served: %+v", l.Patch)
			}
		case wire.RepairKindSummary:
			sum = l.Summary
		}
	}
	if !sawPatch || sum == nil || sum.Status != wire.RepairStatusClean {
		t.Fatalf("control: expected a clean repair with patches, got %s", body)
	}
}

// readAll drains and closes a response body.
func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestChaosDeltaWedge stalls one /v1/delta line far past its deadline:
// batch.Attempt must abandon it after the grace and answer an error
// line — never a report, since a made-up one would carry no warnings —
// and the stream must go on to answer the next line byte-identically
// to a fresh run, on the same server Analyzer. The abandonment shows
// outside the stream too: server.delta_abandoned counts it and the
// request's flight-recorder digest reads outcome "abandoned".
func TestChaosDeltaWedge(t *testing.T) {
	restore := fault.Set(fault.New(11, fault.Rule{
		Point: fault.AnalysisDelay, Mode: fault.ModeDelay, Prob: 1, Count: 1,
		Delay: 30 * time.Second,
	}))
	defer restore()
	srv, ts := newTestServer(t, Config{})

	const deadline = 20 * time.Millisecond
	stalled := "proc p() {\n  var x: int = 0;\n  begin with (ref x) {\n    x = 1;\n  }\n}\n"
	next := "proc q() {\n  var y: int = 0;\n  begin with (ref y) {\n    y = 2;\n  }\n}\n"
	body := deltaBody(t,
		DeltaRequest{Name: "stalled.chpl", Src: stalled,
			Options: RequestOptions{DeadlineMS: deadline.Milliseconds()}},
		DeltaRequest{Name: "next.chpl", Src: next},
	)
	start := time.Now()
	resp, err := ts.Client().Post(ts.URL+"/v1/delta", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("first line: %v", err)
	}
	// Attempt's grace is at least 100ms; 1s of slack covers -race.
	if took, limit := time.Since(start), 2*deadline+time.Second; took > limit {
		t.Errorf("stalled line answered after %v, want within %v", took, limit)
	}
	var e map[string]any
	if err := json.Unmarshal(first, &e); err != nil || e["error"] == nil || e["report"] != nil {
		t.Errorf("stalled line: want an error envelope and no report, got %s", first)
	}

	second, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("second line: %v", err)
	}
	rep, aerr := uafcheck.AnalyzeContext(context.Background(), "next.chpl", next,
		uafcheck.WithPrune(true), uafcheck.WithParallelism(1))
	want, encErr := wire.NewResult("next.chpl", rep, aerr, false).Encode()
	if encErr != nil {
		t.Fatal(encErr)
	}
	if got := bytes.TrimSuffix(second, []byte("\n")); !bytes.Equal(got, want) {
		t.Errorf("line after the abandoned one differs from a fresh run\n server: %s\nlibrary: %s", got, want)
	}

	if _, err := io.Copy(io.Discard, br); err != nil {
		t.Fatal(err)
	}
	if got := srv.MetricsSnapshot().Counter(obs.CtrServerDeltaAbandoned); got != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrServerDeltaAbandoned, got)
	}
	if d := fetchDigest(t, ts, resp); d.Outcome != "abandoned" {
		t.Errorf("digest outcome = %q, want abandoned", d.Outcome)
	}
}
