package server

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"uafcheck"
	"uafcheck/internal/obs"
	"uafcheck/internal/wire"
)

// Module fixtures: main -> mid -> leaf across three files; only the
// whole-module view can attribute leaf's escaping task to the callers.
const (
	modLeaf = "proc leaf(ref v: int) {\n  begin with (ref v) {\n    v = v + 1;\n  }\n}\n"
	modMid  = "proc mid(ref w: int) {\n  leaf(w);\n}\n"
	modMain = "proc main() {\n  var x: int = 0;\n  mid(x);\n}\n"
)

func moduleBatchFiles() []BatchFile {
	return []BatchFile{
		{Name: "leaf.chpl", Src: modLeaf},
		{Name: "mid.chpl", Src: modMid},
		{Name: "main.chpl", Src: modMain},
	}
}

// canonicalModuleLines runs the library entry point with the server's
// default options and encodes each file the way the stream does.
func canonicalModuleLines(t *testing.T, files []BatchFile) [][]byte {
	t.Helper()
	mrep, err := uafcheck.AnalyzeModuleContext(context.Background(), batchInputs(files),
		uafcheck.WithPrune(true), uafcheck.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	lines := make([][]byte, len(mrep.Files))
	for i, fr := range mrep.Files {
		b, encErr := wire.NewResult(fr.Name, fr.Report, fr.Err, false).Encode()
		if encErr != nil {
			t.Fatal(encErr)
		}
		lines[i] = b
	}
	return lines
}

// TestBatchModuleMode: mode "module" analyzes the files as one linked
// module — the NDJSON lines come back in input order, byte-identical to
// the library's module encoding, and the cross-file warnings are there.
func TestBatchModuleMode(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	files := moduleBatchFiles()

	resp, body := post(t, ts, "/v1/analyze-batch", BatchRequest{Mode: "module", Files: files})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines := splitLines(body)
	want := canonicalModuleLines(t, files)
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d: %s", len(lines), len(want), body)
	}
	for i := range want {
		if string(lines[i]) != string(want[i]) {
			t.Errorf("line %d differs\nserver: %s\nlibrary: %s", i, lines[i], want[i])
		}
	}
	// The caller-side warning exists only under whole-module analysis.
	var res wire.Result
	if err := json.Unmarshal(lines[2], &res); err != nil {
		t.Fatal(err)
	}
	if res.Name != "main.chpl" || res.Report == nil || len(res.Report.Warnings) == 0 {
		t.Errorf("main.chpl should carry a cross-file warning, got %s", lines[2])
	}
	if got := srv.MetricsSnapshot().Counter(obs.CtrServerBatchFiles); got != int64(len(files)) {
		t.Errorf("batch_files counter = %d, want %d", got, len(files))
	}
}

func splitLines(body []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, c := range body {
		if c == '\n' {
			if i > start {
				out = append(out, body[start:i])
			}
			start = i + 1
		}
	}
	if start < len(body) {
		out = append(out, body[start:])
	}
	return out
}

// TestBatchModuleUnresolved: a call that names no procedure in any file
// is a 422 with the typed unresolved_call code.
func TestBatchModuleUnresolved(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, "/v1/analyze-batch", BatchRequest{
		Mode:  "module",
		Files: []BatchFile{{Name: "main.chpl", Src: modMain}},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	if e.Code != CodeUnresolvedCall {
		t.Errorf("code = %q, want %q (error: %s)", e.Code, CodeUnresolvedCall, e.Error)
	}
}

// TestBatchUnknownMode is rejected up front, before any analysis.
func TestBatchUnknownMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, "/v1/analyze-batch", BatchRequest{
		Mode:  "bogus",
		Files: []BatchFile{{Name: "a.chpl", Src: "proc p() { }"}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestDeltaModuleStream: module lines on /v1/delta fan out to one wire
// line per file and are served from the per-unit memo across snapshots —
// an effect-preserving callee edit recomputes only the edited file.
func TestDeltaModuleStream(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	v1 := moduleBatchFiles()
	v2 := moduleBatchFiles()
	v2[0].Src = "proc leaf(ref v: int) {\n  begin with (ref v) {\n    v = v + 9;\n  }\n}\n"

	body := deltaBody(t,
		DeltaRequest{Module: "app", Files: v1},
		DeltaRequest{Module: "app", Files: v2},
		DeltaRequest{Module: "app", Files: v2},
	)
	resp, lines := postNDJSON(t, ts, "/v1/delta", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(lines) != 9 {
		t.Fatalf("got %d response lines, want 9 (3 snapshots x 3 files): %q", len(lines), lines)
	}
	for si, snap := range [][]BatchFile{v1, v2, v2} {
		want := canonicalModuleLines(t, snap)
		for fi := range want {
			if got := lines[si*3+fi]; string(got) != string(want[fi]) {
				t.Errorf("snapshot %d file %d differs\nserver: %s\nlibrary: %s", si, fi, got, want[fi])
			}
		}
	}
	m := srv.MetricsSnapshot()
	if got := m.Counter(obs.CtrServerDeltaFiles); got != 9 {
		t.Errorf("delta_files = %d, want 9", got)
	}
	// Three units cold; the edit recomputes leaf only (2 hits); the
	// identical snapshot hits all three.
	if got := m.Counter(obs.CtrUnitMisses); got != 4 {
		t.Errorf("unit misses = %d, want 4", got)
	}
	if got := m.Counter(obs.CtrUnitHits); got != 5 {
		t.Errorf("unit hits = %d, want 5", got)
	}
}

// TestDeltaModuleBadLines: a module line with no files answers with one
// error line and the stream continues.
func TestDeltaModuleBadLines(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := deltaBody(t,
		DeltaRequest{Module: "app"},
		DeltaRequest{Name: "ok.chpl", Src: "proc p() { }"},
	)
	resp, lines := postNDJSON(t, ts, "/v1/delta", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), lines)
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

// TestDeltaModuleUnresolved: an unresolved cross-file call inside a
// module line yields a single typed error line, mid-stream.
func TestDeltaModuleUnresolved(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := deltaBody(t, DeltaRequest{
		Module: "app",
		Files:  []BatchFile{{Name: "main.chpl", Src: modMain}},
	})
	resp, lines := postNDJSON(t, ts, "/v1/delta", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1: %q", len(lines), lines)
	}
	var e errorBody
	if err := json.Unmarshal(lines[0], &e); err != nil {
		t.Fatalf("error body %q: %v", lines[0], err)
	}
	if e.Code != CodeUnresolvedCall {
		t.Errorf("code = %q, want %q (error: %s)", e.Code, CodeUnresolvedCall, e.Error)
	}
}

// TestModuleBatchLeavesDeltaSession: a mode "module" batch runs
// one-shot and leaves the server's Analyzer as it was, so a batch for
// another module does not replace a live /v1/delta module session's
// parses and summaries, and the session's next snapshot replays every
// unit from the memo.
func TestModuleBatchLeavesDeltaSession(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	files := moduleBatchFiles()
	body := deltaBody(t, DeltaRequest{Module: "app", Files: files})
	resp, first := postNDJSON(t, ts, "/v1/delta", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d", resp.StatusCode)
	}
	session := srv.an.Stats()

	other := []BatchFile{{Name: "other.chpl", Src: "proc other() {\n  var y: int = 0;\n  begin with (ref y) {\n    y = 1;\n  }\n}\n"}}
	resp, out := post(t, ts, "/v1/analyze-batch", BatchRequest{Mode: "module", Module: "other", Files: other})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, out)
	}
	if got := srv.an.Stats(); got != session {
		t.Errorf("module batch changed the Analyzer: stats %+v, want %+v", got, session)
	}

	before := srv.MetricsSnapshot()
	resp, again := postNDJSON(t, ts, "/v1/delta", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d", resp.StatusCode)
	}
	if len(again) != len(first) {
		t.Fatalf("second delta answered %d lines, first %d", len(again), len(first))
	}
	for i := range again {
		if string(again[i]) != string(first[i]) {
			t.Errorf("line %d differs\nsecond: %s\nfirst:  %s", i, again[i], first[i])
		}
	}
	after := srv.MetricsSnapshot()
	hits := after.Counter(obs.CtrUnitHits) - before.Counter(obs.CtrUnitHits)
	misses := after.Counter(obs.CtrUnitMisses) - before.Counter(obs.CtrUnitMisses)
	if hits == 0 || misses != 0 {
		t.Errorf("second delta after the batch: unit hits/misses = %d/%d, want every unit from the memo", hits, misses)
	}
}
