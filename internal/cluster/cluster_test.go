package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uafcheck/internal/server"
)

// corpusDir is the shared acceptance corpus; the cluster identity
// contract is checked against exactly these inputs.
const corpusDir = "../../testdata/suite"

func loadSuite(t *testing.T) []server.BatchFile {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.chpl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus under %s: %v", corpusDir, err)
	}
	sort.Strings(paths)
	files := make([]server.BatchFile, len(paths))
	for i, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = server.BatchFile{Name: filepath.Base(p), Src: string(src)}
	}
	return files
}

// newWorker boots one in-process worker replica.
func newWorker(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	cfg.Mode = "worker"
	ts := httptest.NewServer(server.New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newCoordinator wires a Coordinator over the given workers with
// background probing disabled — tests drive Probe explicitly.
func newCoordinator(t *testing.T, workers ...WorkerSpec) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := New(Config{
		Workers:       workers,
		ProbeInterval: -1,
	})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		c.Shutdown(ctx) //nolint:errcheck
	})
	return c, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

// sortedLines canonicalizes an NDJSON body for order-insensitive
// byte-level comparison (batch lines legitimately arrive in completion
// order, which differs run to run even in one process).
func sortedLines(body []byte) []string {
	var lines []string
	for _, l := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(l)) > 0 {
			lines = append(lines, string(l))
		}
	}
	sort.Strings(lines)
	return lines
}

// TestClusterByteIdentitySingle: every corpus file analyzed through a
// 2-worker cluster edge answers byte-identically to a single-process
// server.
func TestClusterByteIdentitySingle(t *testing.T) {
	files := loadSuite(t)
	single := newWorker(t, server.Config{})
	w0 := newWorker(t, server.Config{})
	w1 := newWorker(t, server.Config{})
	_, edge := newCoordinator(t,
		WorkerSpec{ID: "w0", URL: w0.URL},
		WorkerSpec{ID: "w1", URL: w1.URL})

	for _, f := range files {
		req := server.AnalyzeRequest{Name: f.Name, Src: f.Src}
		wantResp, want := postJSON(t, single.URL+"/v1/analyze", req)
		gotResp, got := postJSON(t, edge.URL+"/v1/analyze", req)
		if wantResp.StatusCode != gotResp.StatusCode {
			t.Fatalf("%s: status %d via cluster, %d single", f.Name, gotResp.StatusCode, wantResp.StatusCode)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: cluster response differs from single-process\nsingle:  %s\ncluster: %s", f.Name, want, got)
		}
		if gotResp.Header.Get("X-Uafserve-Worker") == "" {
			t.Fatalf("%s: missing X-Uafserve-Worker header", f.Name)
		}
	}
}

// TestClusterByteIdentityBatch: the full corpus as one batch through
// the cluster edge yields exactly the line set a single process emits
// (compared order-insensitively; lines stream in completion order on
// both sides). Unnamed files must default identically too.
func TestClusterByteIdentityBatch(t *testing.T) {
	files := loadSuite(t)
	// Blank half the names: the coordinator must default them by
	// original batch index before splitting, like one process would.
	for i := range files {
		if i%2 == 1 {
			files[i].Name = ""
		}
	}
	req := server.BatchRequest{Files: files}

	single := newWorker(t, server.Config{})
	w0 := newWorker(t, server.Config{})
	w1 := newWorker(t, server.Config{})
	_, edge := newCoordinator(t,
		WorkerSpec{ID: "w0", URL: w0.URL},
		WorkerSpec{ID: "w1", URL: w1.URL})

	wantResp, want := postJSON(t, single.URL+"/v1/analyze-batch", req)
	gotResp, got := postJSON(t, edge.URL+"/v1/analyze-batch", req)
	if wantResp.StatusCode != http.StatusOK || gotResp.StatusCode != http.StatusOK {
		t.Fatalf("status: single %d, cluster %d", wantResp.StatusCode, gotResp.StatusCode)
	}
	wantLines, gotLines := sortedLines(want), sortedLines(got)
	if len(wantLines) != len(files) {
		t.Fatalf("single emitted %d lines for %d files", len(wantLines), len(files))
	}
	if fmt.Sprint(wantLines) != fmt.Sprint(gotLines) {
		t.Fatalf("cluster batch line set differs from single-process\nsingle:  %v\ncluster: %v", wantLines, gotLines)
	}
}

// TestClusterDeltaByteIdentity: an incremental NDJSON stream — initial
// sends plus an edit re-send — through the cluster edge answers
// byte-identically and in input order, like one process.
func TestClusterDeltaByteIdentity(t *testing.T) {
	files := loadSuite(t)[:6]
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, f := range files {
		enc.Encode(server.DeltaRequest{Name: f.Name, Src: f.Src}) //nolint:errcheck
	}
	// Re-send the first file with an edit: routing is by (name,
	// options), so the cluster lands it on the worker holding the memo.
	enc.Encode(server.DeltaRequest{ //nolint:errcheck
		Name: files[0].Name,
		Src:  files[0].Src + "\nproc extraClusterEdit() { var y: int = 2; }\n",
	})
	body := sb.String()

	single := newWorker(t, server.Config{})
	w0 := newWorker(t, server.Config{})
	w1 := newWorker(t, server.Config{})
	_, edge := newCoordinator(t,
		WorkerSpec{ID: "w0", URL: w0.URL},
		WorkerSpec{ID: "w1", URL: w1.URL})

	post := func(url string) []byte {
		resp, err := http.Post(url+"/v1/delta", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta: status %d", resp.StatusCode)
		}
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := post(single.URL)
	got := post(edge.URL)
	if !bytes.Equal(want, got) {
		t.Fatalf("cluster delta stream differs from single-process\nsingle:  %s\ncluster: %s", want, got)
	}
}

// TestClusterCoordinatorRestart: a fresh coordinator over the same
// worker fleet routes and answers identically — coordinator state is
// soft, so a restart loses nothing.
func TestClusterCoordinatorRestart(t *testing.T) {
	files := loadSuite(t)[:4]
	w0 := newWorker(t, server.Config{})
	w1 := newWorker(t, server.Config{})
	specs := []WorkerSpec{{ID: "w0", URL: w0.URL}, {ID: "w1", URL: w1.URL}}

	_, edge1 := newCoordinator(t, specs...)
	var before [][]byte
	var owners []string
	for _, f := range files {
		resp, out := postJSON(t, edge1.URL+"/v1/analyze", server.AnalyzeRequest{Name: f.Name, Src: f.Src})
		before = append(before, out)
		owners = append(owners, resp.Header.Get("X-Uafserve-Worker"))
	}

	_, edge2 := newCoordinator(t, specs...)
	for i, f := range files {
		resp, out := postJSON(t, edge2.URL+"/v1/analyze", server.AnalyzeRequest{Name: f.Name, Src: f.Src})
		if !bytes.Equal(before[i], out) {
			t.Fatalf("%s: response changed across coordinator restart", f.Name)
		}
		if got := resp.Header.Get("X-Uafserve-Worker"); got != owners[i] {
			t.Fatalf("%s: routed to %s before restart, %s after — routing is not deterministic", f.Name, owners[i], got)
		}
	}
}

// TestClusterBackpressureBubbles: a worker's 429 + Retry-After must
// reach the edge caller verbatim — the coordinator neither retries nor
// rewrites backpressure, so a cluster edge looks exactly like one
// overloaded process.
func TestClusterBackpressureBubbles(t *testing.T) {
	const busyBody = `{"error":"queue full","code":"overloaded"}` + "\n"
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"status":"ok"}`)) //nolint:errcheck
		default:
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, busyBody) //nolint:errcheck
		}
	}))
	defer stub.Close()
	_, edge := newCoordinator(t, WorkerSpec{ID: "w0", URL: stub.URL})

	checks := []struct {
		path string
		body any
	}{
		{"/v1/analyze", server.AnalyzeRequest{Name: "a.chpl", Src: "proc a() { }"}},
		{"/v1/analyze-batch", server.BatchRequest{Files: []server.BatchFile{{Name: "a.chpl", Src: "proc a() { }"}}}},
	}
	for _, c := range checks {
		resp, out := postJSON(t, edge.URL+c.path, c.body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429", c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "7" {
			t.Fatalf("%s: Retry-After %q, want 7", c.path, got)
		}
		if string(out) != busyBody {
			t.Fatalf("%s: body rewritten: %q", c.path, out)
		}
	}
}

// TestChaosClusterWorkerKillMidBatch: one worker accepts its batch
// shard, emits a torn partial line and dies. The edge stream must
// still carry one well-formed line per file — the dead worker's files
// rerouted to the survivor and byte-identical to a single-process run,
// never a silently shorter or corrupt stream.
func TestChaosClusterWorkerKillMidBatch(t *testing.T) {
	files := loadSuite(t)
	req := server.BatchRequest{Files: files}

	// The doomed worker: healthy to probes, then hijacks the batch
	// connection to emit a 200 header plus half a JSON line and die —
	// the worst-timed kill, after the coordinator's header barrier.
	doomed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`)) //nolint:errcheck
			return
		}
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\r\n") //nolint:errcheck
		buf.WriteString(`{"name":"torn-partial`)                                         //nolint:errcheck
		buf.Flush()                                                                      //nolint:errcheck
		conn.Close()
	}))
	defer doomed.Close()
	survivor := newWorker(t, server.Config{})
	coord, edge := newCoordinator(t,
		WorkerSpec{ID: "w0", URL: doomed.URL},
		WorkerSpec{ID: "w1", URL: survivor.URL})

	// The split is content-deterministic; the test is vacuous unless
	// the doomed worker owns at least one file.
	ring := coord.aliveRing()
	doomedOwns := 0
	for _, f := range files {
		if ring.Lookup(server.RouteKey("analyze", f.Name, f.Src, req.Options)) == "w0" {
			doomedOwns++
		}
	}
	if doomedOwns == 0 {
		t.Fatal("ring routed no corpus file to the doomed worker; test would be vacuous")
	}

	single := newWorker(t, server.Config{})
	_, want := postJSON(t, single.URL+"/v1/analyze-batch", req)
	resp, got := postJSON(t, edge.URL+"/v1/analyze-batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	gotLines := sortedLines(got)
	if len(gotLines) != len(files) {
		t.Fatalf("edge stream has %d lines for %d files — a worker kill silently shortened it:\n%s",
			len(gotLines), len(files), got)
	}
	for _, l := range gotLines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("edge relayed a corrupt line: %q", l)
		}
		if strings.Contains(l, "torn-partial") {
			t.Fatalf("edge relayed the dead worker's partial line: %q", l)
		}
	}
	if fmt.Sprint(sortedLines(want)) != fmt.Sprint(gotLines) {
		t.Fatalf("rerouted batch diverged from single-process result\nsingle:  %v\ncluster: %v",
			sortedLines(want), gotLines)
	}
}

// TestRelayedLineReading pins the two cheap reads the batch relay makes
// of a worker stream: only newline-terminated lines are yielded (a torn
// trailing line is dropped, whatever it looks like), and a line's name
// is its first field.
func TestRelayedLineReading(t *testing.T) {
	for _, torn := range []string{`{"name":"torn-partial`, `{"name":"a.chpl","report":{}}`} {
		sc := bufio.NewScanner(strings.NewReader("{\"name\":\"x\"}\n\n{\"name\":\"y\"}\r\n" + torn))
		sc.Split(completeLines)
		var got []string
		for sc.Scan() {
			got = append(got, string(bytes.TrimSpace(sc.Bytes())))
		}
		if want := []string{`{"name":"x"}`, "", `{"name":"y"}`}; fmt.Sprint(got) != fmt.Sprint(want) || sc.Err() != nil {
			t.Errorf("torn tail %q: lines %q (err %v), want %q", torn, got, sc.Err(), want)
		}
	}
	for _, c := range []struct {
		line, name string
		ok         bool
	}{
		{`{"name":"dir/a\"b.chpl","api_version":"v1","status":"ok","report":{"metrics":{}}}`, `dir/a"b.chpl`, true},
		{`{"name":"c.chpl","status":`, "c.chpl", true},
		{`{"error":"encode failed"}`, "", false},
		{`{"name":7}`, "", false},
		{`[1]`, "", false},
	} {
		if name, ok := lineName([]byte(c.line)); name != c.name || ok != c.ok {
			t.Errorf("lineName(%s) = %q, %t; want %q, %t", c.line, name, ok, c.name, c.ok)
		}
	}
}

// TestChaosClusterWorkerKillNoSurvivor: when the shard owner dies
// mid-stream and no other worker can take the reroute, every
// unfinished file must surface as a flagged status "error" line — the
// degraded outcome is visible, never silent.
func TestChaosClusterWorkerKillNoSurvivor(t *testing.T) {
	doomed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`)) //nolint:errcheck
			return
		}
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\r\n") //nolint:errcheck
		buf.Flush()                                                                      //nolint:errcheck
		conn.Close()
	}))
	defer doomed.Close()
	_, edge := newCoordinator(t, WorkerSpec{ID: "w0", URL: doomed.URL})

	files := []server.BatchFile{
		{Name: "a.chpl", Src: "proc a() { var x: int = 1; }"},
		{Name: "b.chpl", Src: "proc b() { var y: int = 2; }"},
	}
	resp, got := postJSON(t, edge.URL+"/v1/analyze-batch", server.BatchRequest{Files: files})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (stream had started)", resp.StatusCode)
	}
	lines := sortedLines(got)
	if len(lines) != len(files) {
		t.Fatalf("got %d lines for %d files:\n%s", len(lines), len(files), got)
	}
	for _, l := range lines {
		var res struct {
			Name   string `json:"name"`
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal([]byte(l), &res); err != nil {
			t.Fatalf("corrupt line: %q", l)
		}
		if res.Status != "error" || !strings.Contains(res.Error, "worker lost mid-batch") {
			t.Fatalf("line not flagged as worker-lost: %q", l)
		}
	}
}

// TestClusterMembershipProbe: killing a worker and probing shrinks the
// ring and degrades /healthz; the cluster keeps serving byte-identical
// results from the survivors, and an empty fleet answers 503 unready.
func TestClusterMembershipProbe(t *testing.T) {
	files := loadSuite(t)[:4]
	w0 := newWorker(t, server.Config{})
	w1live := newWorker(t, server.Config{})
	coord, edge := newCoordinator(t,
		WorkerSpec{ID: "w0", URL: w0.URL},
		WorkerSpec{ID: "w1", URL: w1live.URL})

	healthz := func() (int, map[string]any) {
		resp, err := http.Get(edge.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}

	if code, m := healthz(); code != http.StatusOK || m["status"] != "ok" {
		t.Fatalf("full fleet: healthz %d %v", code, m["status"])
	}

	var want [][]byte
	for _, f := range files {
		_, out := postJSON(t, edge.URL+"/v1/analyze", server.AnalyzeRequest{Name: f.Name, Src: f.Src})
		want = append(want, out)
	}

	w1live.Close()
	coord.Probe()
	if coord.aliveRing().Len() != 1 {
		t.Fatalf("ring has %d members after killing one of two", coord.aliveRing().Len())
	}
	code, m := healthz()
	if code != http.StatusOK || m["status"] != "degraded" {
		t.Fatalf("partial fleet: healthz %d %v, want 200 degraded", code, m["status"])
	}
	comps := m["components"].(map[string]any)
	if comps["worker:w1"].(map[string]any)["state"] != "dead" {
		t.Fatalf("worker:w1 not reported dead: %v", comps["worker:w1"])
	}
	for i, f := range files {
		resp, out := postJSON(t, edge.URL+"/v1/analyze", server.AnalyzeRequest{Name: f.Name, Src: f.Src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d on degraded fleet", f.Name, resp.StatusCode)
		}
		if !bytes.Equal(want[i], out) {
			t.Fatalf("%s: result changed after membership shrank", f.Name)
		}
	}

	w0.Close()
	coord.Probe()
	if code, m := healthz(); code != http.StatusServiceUnavailable || m["status"] != "unready" {
		t.Fatalf("empty fleet: healthz %d %v, want 503 unready", code, m["status"])
	}
	resp, _ := postJSON(t, edge.URL+"/v1/analyze", server.AnalyzeRequest{Name: "a.chpl", Src: "proc a() { }"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty fleet: analyze answered %d, want 503", resp.StatusCode)
	}
}

// TestClusterStatuszSurface: /statusz carries the version, the
// coordinator mode, per-worker rows and the edge counters — the
// operator's one-stop view of the fleet.
func TestClusterStatuszSurface(t *testing.T) {
	w0 := newWorker(t, server.Config{})
	_, edge := newCoordinator(t, WorkerSpec{ID: "w0", URL: w0.URL})
	postJSON(t, edge.URL+"/v1/analyze", server.AnalyzeRequest{Name: "a.chpl", Src: "proc a() { }"})

	resp, err := http.Get(edge.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m["mode"] != "coordinator" {
		t.Fatalf("mode = %v, want coordinator", m["mode"])
	}
	if v, ok := m["version"].(string); !ok || v == "" {
		t.Fatalf("missing version: %v", m["version"])
	}
	if _, ok := m["components"].(map[string]any)["worker:w0"]; !ok {
		t.Fatalf("missing worker row: %v", m["components"])
	}
	counters := m["counters"].(map[string]any)
	if counters[CtrProxied].(float64) < 1 {
		t.Fatalf("proxied counter not incremented: %v", counters)
	}
}

// deadWorker stands in for a worker whose process is gone while its
// address still accepts connections. It answers /healthz, so the
// start-up probe puts it on the ring; every other connection is
// counted and closed unanswered.
type deadWorker struct {
	ln      net.Listener
	accepts atomic.Int64
}

func newDeadWorker(t *testing.T) *deadWorker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	d := &deadWorker{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go d.serve(conn)
		}
	}()
	return d
}

func (d *deadWorker) serve(conn net.Conn) {
	defer conn.Close()
	req, err := http.ReadRequest(bufio.NewReader(conn))
	if err == nil && req.URL.Path == "/healthz" {
		io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n") //nolint:errcheck
		return
	}
	d.accepts.Add(1)
}

// TestEdgeDeadOwnerFailsOverOnce: with the default Config, a request
// whose owner is dead costs exactly one connection attempt there and
// then gets its answer from the ring successor — on the analyze,
// batch and delta paths alike. Nothing retries the dead owner, backs
// off or waits for a breaker.
func TestEdgeDeadOwnerFailsOverOnce(t *testing.T) {
	live := newWorker(t, server.Config{})
	dead := newDeadWorker(t)
	c := New(Config{
		Workers: []WorkerSpec{
			{ID: "live", URL: live.URL},
			{ID: "dead", URL: "http://" + dead.ln.Addr().String()},
		},
		// No probe round after the start-up one: the ring keeps the
		// dead owner, as it does between two rounds.
		ProbeInterval: -1,
	})
	edge := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		edge.Close()
		c.Shutdown(context.Background()) //nolint:errcheck
	})
	if c.aliveRing().Len() != 2 {
		t.Fatalf("ring has %d members, want both workers", c.aliveRing().Len())
	}

	var owned, deltaOwned []server.BatchFile
	for _, f := range loadSuite(t) {
		if c.aliveRing().Lookup(server.RouteKey("analyze", f.Name, f.Src, server.RequestOptions{})) == "dead" {
			owned = append(owned, f)
		}
		if c.aliveRing().Lookup(server.RouteKey("delta", f.Name, "", server.RequestOptions{})) == "dead" {
			deltaOwned = append(deltaOwned, f)
		}
	}
	if len(owned) < 3 || len(deltaOwned) < 2 {
		t.Fatalf("dead worker owns %d analyze and %d delta files, want at least 3 and 2", len(owned), len(deltaOwned))
	}

	// once sends one request and checks it cost one connection attempt
	// at the dead owner and was answered 200 with the given number of
	// result lines, none of them an error.
	once := func(what, path string, body []byte, lines int) {
		t.Helper()
		before := dead.accepts.Load()
		resp, out := postAccept(t, edge.URL+path, "", body)
		if n := dead.accepts.Load() - before; n != 1 {
			t.Errorf("%s: %d connection attempts at the dead owner, want 1", what, n)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", what, resp.StatusCode, out)
		}
		if w := resp.Header.Get("X-Uafserve-Worker"); w != "" && w != "live" {
			t.Errorf("%s: answered by %q, want the successor", what, w)
		}
		got := sortedLines(out)
		if len(got) != lines {
			t.Fatalf("%s: %d result lines, want %d: %s", what, len(got), lines, out)
		}
		for _, l := range got {
			if strings.Contains(l, `"status":"error"`) || strings.HasPrefix(l, `{"error"`) {
				t.Errorf("%s: error line %s", what, l)
			}
		}
	}
	for _, f := range owned[:2] {
		once("analyze "+f.Name, "/v1/analyze", mustMarshal(t, server.AnalyzeRequest{Name: f.Name, Src: f.Src}), 1)
	}
	once("batch", "/v1/analyze-batch", mustMarshal(t, server.BatchRequest{Files: owned}), len(owned))
	for _, f := range deltaOwned[:2] {
		once("delta "+f.Name, "/v1/delta", mustMarshal(t, server.DeltaRequest{Name: f.Name, Src: f.Src}), 1)
	}
	counters := c.rec.Snapshot()
	if lost, hops := counters.Counter(CtrWorkerLost), counters.Counter(CtrReroutes); lost != 5 || hops != 5 {
		t.Errorf("worker_lost %d, reroutes %d; want 5 each", lost, hops)
	}
}
