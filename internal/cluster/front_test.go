package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"uafcheck/internal/server"
)

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postAccept sends body to url with an optional Accept header and returns the
// response with its body read.
func postAccept(t *testing.T, url, accept string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// conformancePair is one worker and a 1-worker edge over it, both
// under the same body limit.
type conformancePair struct{ worker, edge string }

func newConformancePair(t *testing.T, limit int64) conformancePair {
	t.Helper()
	worker := newWorker(t, server.Config{MaxBodyBytes: limit})
	c := New(Config{
		Workers:       []WorkerSpec{{ID: "w0", URL: worker.URL}},
		ProbeInterval: -1,
		MaxBodyBytes:  limit,
	})
	edge := httptest.NewServer(c.Handler())
	t.Cleanup(edge.Close)
	return conformancePair{worker: worker.URL, edge: edge.URL}
}

// deltaLine renders one single-file /v1/delta line padded with a
// trailing comment to exactly size bytes, newline included.
func deltaLine(t *testing.T, name string, size int) []byte {
	t.Helper()
	src := "proc a() { }\n//"
	n := len(mustMarshal(t, server.DeltaRequest{Name: name, Src: src})) + 1
	line := append(mustMarshal(t, server.DeltaRequest{Name: name, Src: src + strings.Repeat("x", size-n)}), '\n')
	if len(line) != size {
		t.Fatalf("delta line is %d bytes, want %d", len(line), size)
	}
	return line
}

// TestEdgeWorkerConformance: a 1-worker edge answers every row with the
// worker's own status, Content-Type and body bytes. The coordinator
// mounts the worker's HTTP front, so content negotiation, request
// validation, error envelopes and the /v1/delta line reader cannot
// drift between the two.
func TestEdgeWorkerConformance(t *testing.T) {
	const limit = 64 << 10
	fig1, err := os.ReadFile("../../testdata/figure1.chpl")
	if err != nil {
		t.Fatal(err)
	}
	wide := newConformancePair(t, limit)
	// Three 560-byte delta lines against a 1000-byte limit: the first
	// is answered, the limit cuts the second.
	narrow := newConformancePair(t, 1000)

	analyze := mustMarshal(t, server.AnalyzeRequest{Name: "figure1.chpl", Src: string(fig1)})
	batch := mustMarshal(t, server.BatchRequest{Files: append(loadSuite(t)[:3],
		server.BatchFile{Name: "figure1.chpl", Src: string(fig1)})})
	module := mustMarshal(t, server.BatchRequest{Mode: "module", Files: []server.BatchFile{
		{Name: "leaf.chpl", Src: "proc leaf(ref v: int) {\n  begin with (ref v) {\n    v = v + 1;\n  }\n}\n"},
		{Name: "mid.chpl", Src: "proc mid(ref w: int) {\n  leaf(w);\n}\n"},
		{Name: "main.chpl", Src: "proc main() {\n  var x: int = 0;\n  mid(x);\n}\n"},
	}})
	oversized := mustMarshal(t, server.AnalyzeRequest{Name: "big.chpl", Src: strings.Repeat("x", limit)})
	malformedDelta := append(append(mustMarshal(t, server.DeltaRequest{Name: "a.chpl", Src: "proc a() { }"}),
		'\n'), `{"name":"b.chpl","src":`+"\n"...)
	var overLimitDelta []byte
	for _, name := range []string{"a.chpl", "b.chpl", "c.chpl"} {
		overLimitDelta = append(overLimitDelta, deltaLine(t, name, 560)...)
	}

	rows := []struct {
		name, path, accept string
		body               []byte
		status             int
		sorted             bool // NDJSON lines arrive in completion order
		at                 conformancePair
	}{
		{"analyze json", "/v1/analyze", "", analyze, http.StatusOK, false, wide},
		{"analyze sarif accept", "/v1/analyze", "application/sarif+json", analyze, http.StatusOK, false, wide},
		{"analyze sarif query", "/v1/analyze?format=sarif", "", analyze, http.StatusOK, false, wide},
		{"batch ndjson", "/v1/analyze-batch", "", batch, http.StatusOK, true, wide},
		{"batch sarif query", "/v1/analyze-batch?format=sarif", "", batch, http.StatusOK, false, wide},
		{"batch module", "/v1/analyze-batch", "", module, http.StatusOK, false, wide},
		{"bogus mode", "/v1/analyze-batch", "", []byte(`{"mode":"bogus","files":[{"name":"a.chpl","src":"proc a() { }"}]}`), http.StatusBadRequest, false, wide},
		{"malformed json", "/v1/analyze-batch", "", []byte(`{"files":[`), http.StatusBadRequest, false, wide},
		{"missing files", "/v1/analyze-batch", "", []byte(`{"files":[]}`), http.StatusBadRequest, false, wide},
		{"body over limit", "/v1/analyze", "", oversized, http.StatusRequestEntityTooLarge, false, wide},
		{"delta malformed line", "/v1/delta", "", malformedDelta, http.StatusOK, false, wide},
		{"delta over limit", "/v1/delta", "", overLimitDelta, http.StatusOK, false, narrow},
	}
	// The worker answers each delta row's first line, then one error
	// envelope: no spurious "malformed" line for the line the limit cut.
	deltaTails := map[string]string{
		"delta malformed line": `{"error":"malformed delta line: unexpected end of JSON input"}`,
		"delta over limit":     `{"error":"reading delta stream: http: request body too large"}`,
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			wresp, want := postAccept(t, row.at.worker+row.path, row.accept, row.body)
			eresp, got := postAccept(t, row.at.edge+row.path, row.accept, row.body)
			if wresp.StatusCode != row.status {
				t.Fatalf("worker answered %d, want %d: %s", wresp.StatusCode, row.status, want)
			}
			if tail, ok := deltaTails[row.name]; ok {
				if lines := strings.Split(strings.TrimSpace(string(want)), "\n"); len(lines) != 2 || lines[1] != tail {
					t.Fatalf("worker answered %q, want one result line and then %s", want, tail)
				}
			}
			if eresp.StatusCode != wresp.StatusCode {
				t.Fatalf("status: edge %d, worker %d\nedge: %s", eresp.StatusCode, wresp.StatusCode, got)
			}
			if e, w := eresp.Header.Get("Content-Type"), wresp.Header.Get("Content-Type"); e != w {
				t.Fatalf("Content-Type: edge %q, worker %q", e, w)
			}
			if row.sorted {
				if e, w := strings.Join(sortedLines(got), "\n"), strings.Join(sortedLines(want), "\n"); e != w {
					t.Fatalf("line set differs\nworker: %s\nedge:   %s", w, e)
				}
				return
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("body differs\nworker: %s\nedge:   %s", want, got)
			}
		})
	}
}

// fetchDigest reads the flight-recorder digest of a trace from base,
// polling briefly: a digest is filed as its handler returns.
func fetchDigest(t *testing.T, base, trace string) server.RequestDigest {
	t.Helper()
	for i := 0; ; i++ {
		resp, err := http.Get(base + "/debug/requests?trace=" + trace)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var d server.RequestDigest
			if err := json.Unmarshal(body, &d); err != nil {
				t.Fatalf("%s: digest: %v", base, err)
			}
			return d
		}
		if i == 50 {
			t.Fatalf("%s: no digest for trace %s: %d %s", base, trace, resp.StatusCode, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEdgeTraceSpans: a traced batch fanned out over two workers leaves
// one trace on three flight recorders. Span IDs are pairwise distinct
// across the edge's and both workers' digests, each worker's request
// span hangs under the edge's request span, and the edge's request span
// hangs under the caller's.
func TestEdgeTraceSpans(t *testing.T) {
	const (
		traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
		caller  = "00f067aa0ba902b7"
	)
	files := loadSuite(t)
	w0 := newWorker(t, server.Config{})
	w1 := newWorker(t, server.Config{})
	coord, edge := newCoordinator(t,
		WorkerSpec{ID: "w0", URL: w0.URL},
		WorkerSpec{ID: "w1", URL: w1.URL})
	owners := map[string]bool{}
	for _, f := range files {
		owners[coord.aliveRing().Lookup(server.RouteKey("analyze", f.Name, f.Src, server.RequestOptions{}))] = true
	}
	if len(owners) != 2 {
		t.Fatalf("batch routes to %d worker(s), want both", len(owners))
	}

	req, err := http.NewRequest(http.MethodPost, edge.URL+"/v1/analyze-batch",
		bytes.NewReader(mustMarshal(t, server.BatchRequest{Files: files})))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+traceID+"-"+caller+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	ed := fetchDigest(t, edge.URL, traceID)
	if ed.Route != "/v1/analyze-batch" {
		t.Fatalf("edge digest route %q", ed.Route)
	}
	requestSpan := func(d server.RequestDigest) (id, parent string) {
		for _, sp := range d.Spans {
			if sp.Name == "request" {
				return sp.SpanID, sp.Parent
			}
		}
		t.Fatalf("digest of %s has no request span", d.Route)
		return "", ""
	}
	edgeSpan, edgeParent := requestSpan(ed)
	if edgeParent != caller {
		t.Fatalf("edge request span parent %q, want the caller's %s", edgeParent, caller)
	}

	seen := map[string]string{}
	for _, sp := range ed.Spans {
		seen[sp.SpanID] = "edge"
	}
	for name, base := range map[string]string{"w0": w0.URL, "w1": w1.URL} {
		d := fetchDigest(t, base, traceID)
		if id, parent := requestSpan(d); parent != edgeSpan {
			t.Errorf("%s request span %s has parent %q, want the edge's %s", name, id, parent, edgeSpan)
		}
		for _, sp := range d.Spans {
			if other, dup := seen[sp.SpanID]; dup {
				t.Fatalf("span ID %s (%s) recorded by both %s and %s", sp.SpanID, sp.Name, other, name)
			}
			seen[sp.SpanID] = name
		}
	}
}
