package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"uafcheck"
	"uafcheck/internal/obs"
	"uafcheck/internal/wire"
)

// postNDJSON sends a prebuilt NDJSON body and returns the response
// lines.
func postNDJSON(t *testing.T, ts *httptest.Server, path string, body []byte) (*http.Response, [][]byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	return resp, lines
}

// deltaBody renders DeltaRequest lines as one NDJSON request body.
func deltaBody(t *testing.T, reqs ...DeltaRequest) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, r := range reqs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestDeltaStreamByteIdentity is the /v1/delta acceptance bar: every
// line of the stream — cold, warm after an edit, and fully warm — must
// be byte-identical to the canonical encoding of a from-scratch run,
// and the warm lines must actually have been served incrementally.
func TestDeltaStreamByteIdentity(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	proc := func(i, v int) string {
		return fmt.Sprintf("proc p%d() {\n  var x: int = 0;\n  begin with (ref x) {\n    x = %d;\n  }\n}\n", i, v)
	}
	v1 := proc(0, 1) + proc(1, 1) + proc(2, 1)
	v2 := proc(0, 1) + proc(1, 7) + proc(2, 1) // edit p1 only

	body := deltaBody(t,
		DeltaRequest{Name: "w.chpl", Src: v1},
		DeltaRequest{Name: "w.chpl", Src: v2},
		DeltaRequest{Name: "w.chpl", Src: v2},
	)
	resp, lines := postNDJSON(t, ts, "/v1/delta", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d response lines, want 3", len(lines))
	}
	for i, src := range []string{v1, v2, v2} {
		rep, err := uafcheck.AnalyzeContext(context.Background(), "w.chpl", src,
			uafcheck.WithPrune(true), uafcheck.WithParallelism(1))
		want, encErr := wire.NewResult("w.chpl", rep, err, false).Encode()
		if encErr != nil {
			t.Fatal(encErr)
		}
		if !bytes.Equal(lines[i], want) {
			t.Errorf("line %d differs from canonical encoding\n server: %s\nlibrary: %s", i, lines[i], want)
		}
	}

	m := srv.MetricsSnapshot()
	if got := m.Counter(obs.CtrServerDeltaFiles); got != 3 {
		t.Errorf("%s = %d, want 3", obs.CtrServerDeltaFiles, got)
	}
	// Line 2 recomputes only p1 (2 hits); line 3 hits all three units.
	if got := m.Counter(obs.CtrUnitHits); got != 5 {
		t.Errorf("%s = %d, want 5", obs.CtrUnitHits, got)
	}
	if got := m.Counter(obs.CtrUnitMisses); got != 4 {
		t.Errorf("%s = %d, want 4", obs.CtrUnitMisses, got)
	}
}

// TestDeltaSharedAnalyzerMixedOptions interleaves two option sets in
// one stream. Both run through the server's one Analyzer, so every line
// must still match a fresh run under its own options, and the repeats
// must be served from the shared memo store.
func TestDeltaSharedAnalyzerMixedOptions(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	src := "proc p() {\n  var buf: int = 0;\n  var flag: atomic int;\n" +
		"  begin with (ref buf) {\n    buf = 9;\n    flag.write(1);\n  }\n  flag.waitFor(1);\n}\n"
	sets := []RequestOptions{{}, {ModelAtomics: true}}
	var reqs []DeltaRequest
	for i := 0; i < 4; i++ {
		reqs = append(reqs, DeltaRequest{Name: "m.chpl", Src: src, Options: sets[i%2]})
	}
	resp, lines := postNDJSON(t, ts, "/v1/delta", deltaBody(t, reqs...))
	if resp.StatusCode != http.StatusOK || len(lines) != len(reqs) {
		t.Fatalf("status %d, %d lines; want 200, %d", resp.StatusCode, len(lines), len(reqs))
	}
	var wants [2][]byte
	for i, o := range sets {
		rep, err := uafcheck.AnalyzeContext(context.Background(), "m.chpl", src,
			uafcheck.WithParallelism(1), uafcheck.WithAtomicsModel(o.ModelAtomics))
		want, encErr := wire.NewResult("m.chpl", rep, err, false).Encode()
		if encErr != nil {
			t.Fatal(encErr)
		}
		wants[i] = want
	}
	if bytes.Equal(wants[0], wants[1]) {
		t.Fatal("the two option sets give the same report; the test needs them to differ")
	}
	for i, line := range lines {
		if !bytes.Equal(line, wants[i%2]) {
			t.Errorf("line %d differs from a fresh run\n server: %s\nlibrary: %s", i, line, wants[i%2])
		}
	}
	m := srv.MetricsSnapshot()
	if hits, misses := m.Counter(obs.CtrUnitHits), m.Counter(obs.CtrUnitMisses); hits != 2 || misses != 2 {
		t.Errorf("unit hits/misses = %d/%d, want 2/2 (one miss per option set)", hits, misses)
	}
}

// TestDeltaStreamBadLines: malformed or empty lines answer with an
// error line and the stream keeps going.
func TestDeltaStreamBadLines(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := []byte("{not json\n\n{\"name\":\"ok.chpl\",\"src\":\"proc p() { }\"}\n")
	resp, lines := postNDJSON(t, ts, "/v1/delta", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2 (error + result): %q", len(lines), lines)
	}
	var e errorBody
	if err := json.Unmarshal(lines[0], &e); err != nil || e.Error == "" {
		t.Errorf("line 0 should be an error envelope, got %s", lines[0])
	}
	var res wire.Result
	if err := json.Unmarshal(lines[1], &res); err != nil || res.Status != "ok" {
		t.Errorf("line 1 should be an ok result, got %s", lines[1])
	}
}

// TestDeltaFrontendError: a parse failure surfaces as a status "error"
// line mid-stream, consistent with the 422 classification of the
// single-shot endpoint.
func TestDeltaFrontendError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := deltaBody(t, DeltaRequest{Name: "bad.chpl", Src: "proc ( {"})
	resp, lines := postNDJSON(t, ts, "/v1/delta", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	var res wire.Result
	if err := json.Unmarshal(lines[0], &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != "error" || res.Error == "" {
		t.Errorf("want status error with message, got %s", lines[0])
	}
	if res.APIVersion != wire.APIVersion {
		t.Errorf("api_version = %q, want %q", res.APIVersion, wire.APIVersion)
	}
}

// TestDeprecatedAliases: the unversioned pre-v1 routes keep serving the
// exact versioned bytes while flagging themselves deprecated — header
// plus server.deprecated_requests — and the versioned routes stay
// unflagged.
func TestDeprecatedAliases(t *testing.T) {
	// Discard the one-time deprecation warning; TestDeprecatedAliasLogsOnce
	// covers it.
	srv, ts := newTestServer(t, Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	req := AnalyzeRequest{Name: "a.chpl", Src: "proc p() {\n  var x: int = 0;\n  begin with (ref x) {\n    x = 1;\n  }\n}\n"}

	respV, bodyV := post(t, ts, "/v1/analyze", req)
	if respV.StatusCode != http.StatusOK {
		t.Fatalf("/v1/analyze status %d", respV.StatusCode)
	}
	if respV.Header.Get("Deprecation") != "" {
		t.Error("/v1/analyze must not be marked deprecated")
	}
	if got := srv.MetricsSnapshot().Counter(obs.CtrServerDeprecated); got != 0 {
		t.Fatalf("%s = %d after versioned request, want 0", obs.CtrServerDeprecated, got)
	}

	respA, bodyA := post(t, ts, "/analyze", req)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("/analyze status %d", respA.StatusCode)
	}
	if respA.Header.Get("Deprecation") != "true" {
		t.Error("/analyze should set the Deprecation header")
	}
	if link := respA.Header.Get("Link"); link != `</v1/analyze>; rel="successor-version"` {
		t.Errorf("Link = %q", link)
	}
	if !bytes.Equal(bodyA, bodyV) {
		t.Errorf("alias bytes differ from versioned bytes\n  alias: %s\nversion: %s", bodyA, bodyV)
	}

	respB, _ := post(t, ts, "/analyze-batch", BatchRequest{Files: []BatchFile{{Name: "a.chpl", Src: req.Src}}})
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("/analyze-batch status %d", respB.StatusCode)
	}
	if respB.Header.Get("Deprecation") != "true" {
		t.Error("/analyze-batch should set the Deprecation header")
	}
	if got := srv.MetricsSnapshot().Counter(obs.CtrServerDeprecated); got != 2 {
		t.Errorf("%s = %d, want 2", obs.CtrServerDeprecated, got)
	}
	// /v1/delta is versioned-only: the unversioned spelling must 404.
	respD, _ := post(t, ts, "/delta", struct{}{})
	if respD.StatusCode != http.StatusNotFound {
		t.Errorf("/delta status %d, want 404", respD.StatusCode)
	}
}
